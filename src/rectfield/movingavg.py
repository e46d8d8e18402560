"""Moving-average kernels and covariance computation via L2 inner products.

A field with strictly stationary rectangular increments can be written as an
integral of a deterministic kernel g(t, x) against white noise; its
covariance is then the L2 inner product int g(t, x) conj(g(s, x)) dx.  Two
kernel shapes occur.  Away from H = 1/2 the per-coordinate building blocks
are the one-sided power parts

    p_H(t, x) = (t-x)_+^{H-1/2} - (-x)_+^{H-1/2}      ("past" part)
    f_H(t, x) = (x-t)_+^{H-1/2} - x_+^{H-1/2}         ("future" part)

combined per sign vector e with phases exp(-+ i pi e (H+1/2)/2) and weights
sqrt(K_e) e^{i phi_e}, phi_{-e} = -phi_e.  At H = 1/2 the blocks become
pi 1_[0,t](x) and the logarithm log(|t-x|/|x|).

The two-parameter family used throughout the tests takes a real combination
d0 * (past product) + d1 * (future product), normalized to unit variance at
t = (1,1) by

    d0^2 + 2 d0 d1 sin(pi H1) sin(pi H2) + d1^2 = 1     (H1, H2 != 1/2)
    d0^2 + d1^2 = 1                                     (H1 = H2 = 1/2)

— the cross term is the product over coordinates of the inner products
c2(H)^2 int p_H(1,x) f_H(1,x) dx = -sin(pi H), which the quadrature here
verifies rather than assumes.  The constraint's residual is
:func:`rectfield.kernels.moving_constraint_residual`, which ``MovingPair``
checks when it is built.

Every covariance in this module is computed by one-dimensional quadrature
of the coordinate factors (the integrands are products over coordinates, so
the N-dimensional integral factorizes exactly); singular abscissae {0, s, t}
are declared panel edges and the infinite tails use the same engine as the
rest of the package.  The pair itself has a closed form,
``make_kernel(MovingPair(...))`` (see :class:`rectfield.kernels.MovingPair`);
the quadrature here is its independent oracle, used by the tests and by
``rectfield check --suite ma``, never by kernel evaluation.  The points
s and t of a covariance must be finite and in the positive orthant, and
the imaginary part left by the weight table must stay within ``IMAG_TOL``
of the covariance's scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .gammafn import c2, pow_plus
from .kernels import MovingPair, _as_points, validate_hurst
from .quadrature import QuadratureError, integrate_1d

__all__ = [
    "MAKernel",
    "make_ma_kernel",
    "ma_kernel_general",
    "ma_kernel_half",
    "cov_from_ma",
    "cov_moving_pair",
]

IMAG_TOL = 1e-6           # relative imaginary residual cov_from_ma accepts


def p_kernel(h: float, t: float, x: float) -> float:
    """Past power part (t-x)_+^{H-1/2} - (-x)_+^{H-1/2}."""
    return pow_plus(t - x, h - 0.5) - pow_plus(-x, h - 0.5)


def f_kernel(h: float, t: float, x: float) -> float:
    """Future power part (x-t)_+^{H-1/2} - x_+^{H-1/2}."""
    return pow_plus(x - t, h - 0.5) - pow_plus(x, h - 0.5)


def log_ratio(t: float, x: float) -> float:
    """log(|t-x|/|x|), with +-inf markers on the singular abscissae {0, t}."""
    if x == 0.0:
        return math.inf
    if x == t:
        return -math.inf
    return math.log(abs(t - x)) - math.log(abs(x))


def _check_weights(weights: Mapping, n: int) -> dict:
    W = {tuple(int(v) for v in e): (float(k), float(phi))
         for e, (k, phi) in weights.items()}
    if len(W) != 2**n or any(len(e) != n for e in W):
        raise ValueError(f"need all {2**n} sign vectors of length {n}")
    for e, (k, phi) in W.items():
        if not (math.isfinite(k) and math.isfinite(phi)):
            raise ValueError(f"K{e} = {k:g} and phi{e} = {phi:g} must be finite")
        neg = tuple(-v for v in e)
        if neg not in W:
            raise ValueError(f"missing mirrored sign vector {neg}")
        if k < 0.0:
            raise ValueError(f"K{e} = {k:g} is negative")
        if W[neg][0] != k:
            raise ValueError(f"K{e} != K{neg}")
        if W[neg][1] != -phi:
            raise ValueError(f"phase antisymmetry violated at {e}")
    return W


def ma_kernel_general(H, weights: Mapping, t, x) -> complex:
    """Moving-average kernel value for Hurst components away from 1/2.

    sum_e sqrt(K_e) e^{i phi_e} prod_j (Gamma(1/2-H_j)/sqrt(2 pi))
        [ p e^{-i beta_j e_j} - f e^{+i beta_j e_j} ],
    beta_j = pi (H_j + 1/2)/2.  On the singular hyperplanes x_j in {0, t_j}
    (H_j < 1/2) the magnitude is an explicit inf marker.
    """
    H = validate_hurst(H)
    if any(h == 0.5 for h in H):
        raise ValueError("all Hurst components must differ from 1/2")
    W = _check_weights(weights, len(H))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if any(h < 0.5 and (xj == 0.0 or xj == tj)
           for h, tj, xj in zip(H, t, x)):
        # integrable power singularity; complex arithmetic would turn the
        # infinity into NaN, so return the marker directly
        return complex(math.inf, math.inf)
    total = 0.0 + 0.0j
    for e, (k, phi) in W.items():
        if k == 0.0:
            continue
        acc = math.sqrt(k) * np.exp(1j * phi)
        for j, ej in enumerate(e):
            beta = math.pi / 2 * (H[j] + 0.5)
            pj = p_kernel(H[j], t[j], x[j])
            fj = f_kernel(H[j], t[j], x[j])
            acc *= (math.gamma(0.5 - H[j]) / math.sqrt(2 * math.pi)
                    * (pj * np.exp(-1j * ej * beta) - fj * np.exp(1j * ej * beta)))
        total += acc
    return complex(total)


def ma_kernel_half(weights: Mapping, t, x) -> complex:
    """Moving-average kernel value at H = (1/2, ..., 1/2).

    sum_e sqrt(K_e) e^{i phi_e} (2 pi)^{-N/2}
        prod_j [ pi 1_[0,t_j](x_j) + i e_j log(|t_j-x_j|/|x_j|) ].
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = len(t)
    W = _check_weights(weights, n)
    if any(xj == 0.0 or xj == tj for tj, xj in zip(t, x)):
        return complex(math.inf, math.inf)  # logarithmic singularity marker
    total = 0.0 + 0.0j
    for e, (k, phi) in W.items():
        if k == 0.0:
            continue
        acc = math.sqrt(k) * np.exp(1j * phi) / (2 * math.pi)**(n / 2)
        for j, ej in enumerate(e):
            ind = math.pi if 0.0 <= x[j] <= t[j] else 0.0
            acc *= complex(ind, ej * log_ratio(t[j], x[j]))
        total += acc
    return complex(total)


@dataclass(frozen=True)
class MAKernel:
    """A moving-average kernel with its weight table.

    ``kind`` is "power" (all H_j != 1/2) or "half" (all H_j = 1/2);
    ``weights`` maps sign vectors to (K_e, phi_e).
    """

    H: tuple
    weights: dict
    kind: str
    evaluate: Callable[..., complex]

    @property
    def n(self) -> int:
        return len(self.H)


def make_ma_kernel(H, weights: Mapping) -> MAKernel:
    H = validate_hurst(H)
    W = _check_weights(weights, len(H))
    if all(h == 0.5 for h in H):
        return MAKernel(H, W, "half", lambda t, x: ma_kernel_half(W, t, x))
    if any(h == 0.5 for h in H):
        raise ValueError(
            "mixed Hurst vectors with some components at 1/2 have no "
            "moving-average kernel here; use all-1/2 or none")
    return MAKernel(H, W, "power", lambda t, x: ma_kernel_general(H, W, t, x))


# --------------------------------------------------------------------------
# Coordinate inner products (one-dimensional quadratures)
# --------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _power_inner(h: float, kind: str, t: float, s: float) -> float:
    """int k1(t, x) k2(s, x) dx for k1, k2 in {p, f} coded as 'pp', 'pf', ...."""
    k1 = p_kernel if kind[0] == "p" else f_kernel
    k2 = p_kernel if kind[1] == "p" else f_kernel
    # supports: p(t, .) lives on (-inf, t), f(t, .) on (0, inf)
    lo1, hi1 = (-math.inf, t) if kind[0] == "p" else (0.0, math.inf)
    lo2, hi2 = (-math.inf, s) if kind[1] == "p" else (0.0, math.inf)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo >= hi:
        return 0.0

    def f(x):
        return k1(h, t, x) * k2(h, s, x)

    # cuts at +-1 beyond {0, s, t} keep the power singularities on finite
    # panels; the slow tails (|x|^{2H-3}, H near 1) are certified only to
    # ~1e-9, so 1e-8 per panel still leaves the 1e-3 covariance contract
    # intact (integrate_1d asks each panel for a quarter of its tol)
    cuts = (0.0, s, t, -1.0, max(s, t) + 1.0)
    return integrate_1d(f, lo, hi, tol=4 * 1e-8, singular_points=cuts).value


@lru_cache(maxsize=4096)
def _log_inner_il(t: float, s: float) -> float:
    """int_0^t log(|s-x|/|x|) dx; 0 on the empty range t = 0."""
    if t == 0.0:
        return 0.0
    return integrate_1d(lambda x: log_ratio(s, x), 0.0, t, tol=4 * 1e-10,
                        singular_points=(s,)).value


@lru_cache(maxsize=4096)
def _log_inner_ll(t: float, s: float) -> float:
    """int_R log(|t-x|/|x|) log(|s-x|/|x|) dx."""
    cuts = (0.0, s, t, -1.0, max(s, t) + 1.0)
    return integrate_1d(lambda x: log_ratio(t, x) * log_ratio(s, x),
                        -math.inf, math.inf, tol=4 * 1e-9,
                        singular_points=cuts).value


def _coord_factor_power(h, t, s, e1, e2) -> complex:
    """int factor(t, x, e1) conj(factor(s, x, e2)) dx for one coordinate."""
    beta = math.pi / 2 * (h + 0.5)
    gsq = math.gamma(0.5 - h)**2 / (2 * math.pi)
    ipp = _power_inner(h, "pp", t, s)
    ipf = _power_inner(h, "pf", t, s)
    ifp = _power_inner(h, "fp", t, s)
    iff = _power_inner(h, "ff", t, s)
    return gsq * (ipp * np.exp(-1j * beta * (e1 - e2))
                  - ipf * np.exp(-1j * beta * (e1 + e2))
                  - ifp * np.exp(1j * beta * (e1 + e2))
                  + iff * np.exp(1j * beta * (e1 - e2)))


def _coord_factor_half(t, s, e1, e2) -> complex:
    ill = _log_inner_ll(t, s)
    i_il = _log_inner_il(t, s)   # int_0^t L(s, x) dx
    i_li = _log_inner_il(s, t)   # int_0^s L(t, x) dx
    return (complex(math.pi**2 * min(t, s) + e1 * e2 * ill,
                    math.pi * (e1 * i_li - e2 * i_il))
            / (2 * math.pi))


def cov_from_ma(kernel: MAKernel, s, t) -> float:
    """Covariance int g(t, x) conj(g(s, x)) dx of a moving-average kernel.

    The integrand is a sum over sign-vector pairs of coordinate-wise
    products, so the N-dimensional integral is evaluated exactly as a
    product of one-dimensional quadratures per pair.  The imaginary part
    must cancel by weight symmetry; a residual beyond ``IMAG_TOL`` raises.
    """
    s, t = _as_points(s, kernel.n), _as_points(t, kernel.n)
    total = 0.0 + 0.0j
    for e, (ke, phe) in kernel.weights.items():
        if ke == 0.0:
            continue
        for ep, (kep, phep) in kernel.weights.items():
            if kep == 0.0:
                continue
            acc = math.sqrt(ke * kep) * np.exp(1j * (phe - phep))
            for j in range(kernel.n):
                if kernel.kind == "power":
                    acc *= _coord_factor_power(kernel.H[j], float(t[j]),
                                               float(s[j]), e[j], ep[j])
                else:
                    acc *= _coord_factor_half(float(t[j]), float(s[j]),
                                              e[j], ep[j])
            total += acc
    scale = max(abs(total), 1.0)
    if abs(total.imag) > IMAG_TOL * scale:
        raise QuadratureError(
            f"imaginary residual {total.imag:g} exceeds tolerance; "
            "weight table is inconsistent")
    return float(total.real)


def cov_moving_pair(spec: MovingPair, s, t) -> float:
    """Quadrature covariance of the two-parameter past/future moving average.

    The oracle for the closed form ``make_kernel(spec)``:

    K(s, t) = c2(H1)^2 c2(H2)^2 [ d0^2 prod_j I_pp + d0 d1 (prod_j I_pf
              + prod_j I_fp) + d1^2 prod_j I_ff ]
    with I_* the coordinate inner products at (t_j, s_j); the H = 1/2
    variant replaces the power parts by indicator and log blocks.
    """
    s, t = _as_points(s, 2), _as_points(t, 2)
    d0, d1 = spec.d0, spec.d1
    if spec.h1 == 0.5:
        pp = min(t[0], s[0]) * min(t[1], s[1])
        pf = math.prod(_log_inner_il(float(t[j]), float(s[j])) for j in range(2))
        fp = math.prod(_log_inner_il(float(s[j]), float(t[j])) for j in range(2))
        ff = math.prod(_log_inner_ll(float(t[j]), float(s[j])) for j in range(2))
        return (d0 * d0 * pp + d0 * d1 * (pf + fp) / math.pi**2
                + d1 * d1 * ff / math.pi**4)
    c = c2(spec.h1)**2 * c2(spec.h2)**2
    H = (spec.h1, spec.h2)
    prods = {}
    for kind in ("pp", "pf", "fp", "ff"):
        prods[kind] = math.prod(
            _power_inner(H[j], kind, float(t[j]), float(s[j])) for j in range(2))
    return c * (d0 * d0 * prods["pp"] + d0 * d1 * (prods["pf"] + prods["fp"])
                + d1 * d1 * prods["ff"])

