"""Special-function primitives shared by the covariance and density formulas.

``_scipy_extension`` loads one of SciPy's compiled modules from its file:
the package calls two, QUADPACK (``scipy.integrate._quadpack``) and the
ufunc module that holds ``scipy.special.loggamma``
(``scipy.special._special_ufuncs``), and importing either subpackage would
first run hundreds of Python modules.  Each is loaded once, at first use.

The magnitude |Gamma(z)| for complex z, without overflow, from that
complex log-gamma; sin(pi H) to rounding; the two normalization constants,
from ``math.gamma``,

    c1(H) = sqrt(H Gamma(2H) sin(pi H) / pi)
    c2(H) = sqrt(Gamma(1+2H) sin(pi H)) / Gamma(H + 1/2)

that calibrate the harmonizable and moving-average representations of a
fractional Brownian sheet; and the one-sided power (u)_+^a.  The check of
a Hurst vector is here too: this module imports nothing from the package,
so every other module can take it from here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "GammaPoleError",
    "abs_gamma",
    "c1",
    "c2",
    "pow_plus",
]

# exp() overflows above this; |Gamma| results beyond it are reported as errors
_LOG_OVERFLOW = math.log(np.finfo(float).max)
# the two compiled SciPy modules the package calls, for _scipy_extension
_QUADPACK = "integrate._quadpack"
_LOGGAMMA = "special._special_ufuncs"     # holds scipy.special.loggamma


@cache
def _scipy_extension(name: str):
    """SciPy's compiled module ``scipy.<name>``, loaded from its own file.

    Only the top-level ``scipy`` package is imported first (about ten light
    modules, among them the ``scipy._lib._ccallback`` that QUADPACK's
    callbacks import); the subpackage's ``__init__`` never runs.  The module
    is registered under its full name, so a later ``import scipy.special``
    or ``scipy.integrate`` shares it.  A SciPy without the file raises
    ``ImportError`` naming the file and the SciPy version.
    """
    import scipy
    full = f"scipy.{name}"
    if full in sys.modules:          # its subpackage was imported already
        return sys.modules[full]
    package, _, stem = name.rpartition(".")
    folder = Path(scipy.__file__).parent.joinpath(*package.split("."))
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / (stem + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(
            f"SciPy {scipy.__version__} has no compiled module {full} "
            f"({folder / stem}{importlib.machinery.EXTENSION_SUFFIXES[0]})",
            name=full)
    loader = importlib.machinery.ExtensionFileLoader(full, str(path))
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_loader(full, loader))
    loader.exec_module(module)
    sys.modules[full] = module
    return module


def _float_tuple(values) -> tuple[float, ...]:
    try:
        return tuple(map(float, values))
    except TypeError:   # a scalar
        return (float(values),)


def validate_hurst(values) -> tuple[float, ...]:
    out = _float_tuple(values)
    if len(out) < 1:
        raise ValueError("Hurst vector must have at least one component")
    for v in out:
        if not 0.0 < v < 1.0:
            raise ValueError(f"Hurst index must lie in (0,1), got {v!r}")
    return out


def _sin_pi(H: float) -> float:
    """sin(pi H) to rounding for H in (0, 1): above 1/2, 1 - H is exact."""
    return math.sin(math.pi * min(H, 1.0 - H))


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
    loggamma = _scipy_extension(_LOGGAMMA).loggamma
    log_mag = float(np.real(loggamma(z)))
    if log_mag > _LOG_OVERFLOW:
        raise OverflowError(f"|Gamma({z})| overflows double precision")
    return math.exp(log_mag)


def c1(H: float) -> float:
    """Spectral normalization sqrt(H Gamma(2H) sin(pi H) / pi), H in (0,1)."""
    H, = validate_hurst((H,))
    return math.sqrt(H * math.gamma(2 * H) * _sin_pi(H) / math.pi)


def c2(H: float) -> float:
    """Moving-average normalization sqrt(Gamma(1+2H) sin(pi H)) / Gamma(H+1/2)."""
    H, = validate_hurst((H,))
    return math.sqrt(math.gamma(1 + 2 * H) * _sin_pi(H)) / math.gamma(H + 0.5)


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
