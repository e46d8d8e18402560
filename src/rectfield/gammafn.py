"""Special-function primitives shared by the covariance and density formulas.

``_scipy_extension`` loads one of SciPy's compiled modules from its file:
the package calls two, QUADPACK (``scipy.integrate._quadpack``) and the
ufunc module that holds ``scipy.special.loggamma``
(``scipy.special._special_ufuncs``), and importing either subpackage would
first run hundreds of Python modules.  Each is loaded once, at first use.

Also here: sin(pi H) to rounding; the normalization constant, from
``math.gamma``,

    c2(H) = sqrt(Gamma(1+2H) sin(pi H)) / Gamma(H + 1/2)

that calibrates the moving-average representation of a fractional
Brownian sheet; and ``ma_basis``, one coordinate's two basis functions,
from which the moving-average kernels, their inner products and the
transform oracle are all built.  The check of a Hurst vector is here
too: this module imports nothing from the package, so every other module
can take it from here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from functools import cache
from pathlib import Path

__all__ = [
    "c2",
    "ma_basis",
]

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


def c2(H: float) -> float:
    """Moving-average normalization sqrt(Gamma(1+2H) sin(pi H)) / Gamma(H+1/2)."""
    H, = validate_hurst((H,))
    return math.sqrt(math.gamma(1 + 2 * H) * _sin_pi(H)) / math.gamma(H + 0.5)


def ma_basis(h: float) -> tuple:
    """One coordinate's two moving-average basis functions of (t, x).

    Away from H = 1/2 the past and future power parts p_H(t, x) =
    (t-x)_+^a - (-x)_+^a and f_H(t, x) = (x-t)_+^a - x_+^a, a = H - 1/2,
    with (0)_+^a = +inf for a < 0: below 1/2 they are +-inf at x in
    {0, t}, a marker that quadrature code recognizes.  At H = 1/2 the
    indicator 1_[0,t](x) and log(|t-x|/|x|), +inf at x = 0 and -inf at
    x = t.  a and the marker are bound once per call, and each power is
    written inside its function: a helper call per power slows the
    quadrature integrands measurably.
    """
    a = h - 0.5
    if a == 0.0:
        def inside(t, x):
            return 1.0 if 0.0 <= x <= t else 0.0

        def log(t, x):
            if x == 0.0:
                return math.inf
            if x == t:
                return -math.inf
            return math.log(abs(t - x)) - math.log(abs(x))
        return inside, log

    edge = math.inf if a < 0.0 else 0.0      # (0)_+^a

    def past(t, x):
        u = t - x
        return ((u**a if u > 0.0 else edge if u == 0.0 else 0.0)
                - ((-x)**a if x < 0.0 else edge if x == 0.0 else 0.0))

    def future(t, x):
        u = x - t
        return ((u**a if u > 0.0 else edge if u == 0.0 else 0.0)
                - (x**a if x > 0.0 else edge if x == 0.0 else 0.0))
    return past, future
