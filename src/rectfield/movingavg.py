"""Moving-average kernels and covariance computation via L2 inner products.

A field with strictly stationary rectangular increments can be written as an
integral of a deterministic kernel g(t, x) against white noise; its
covariance is then the L2 inner product int g(t, x) conj(g(s, x)) dx.  Each
coordinate has two basis functions, numbered b = 0 and b = 1 and defined
once, by ``gammafn.ma_basis``.  Away from H = 1/2 they are the one-sided
power parts

    p_H(t, x) = (t-x)_+^{H-1/2} - (-x)_+^{H-1/2}      ("past" part, b = 0)
    f_H(t, x) = (x-t)_+^{H-1/2} - x_+^{H-1/2}         ("future" part, b = 1)

and at H = 1/2 they are the indicator 1_[0,t](x) and the logarithm
log(|t-x|/|x|).  A kernel is a sum of separable terms

    g(t, x) = sum_k c_k prod_j basis_{b_kj}(t_j, x_j)

with complex coefficients c_k; ``make_ma_kernel`` expands the paper's
weight table (sqrt(K_e) e^{i phi_e} per sign vector e, phi_{-e} = -phi_e,
with per-coordinate phases exp(-+ i pi e_j (H_j+1/2)/2)) into these terms,
so any Hurst component may sit at 1/2.

The two-parameter family used throughout the tests takes the two real terms
d0 * (past product) + d1 * (future product), normalized to unit variance at
t = (1,1) by

    d0^2 + 2 d0 d1 sin(pi H1) sin(pi H2) + d1^2 = 1     (H1, H2 != 1/2)
    d0^2 + d1^2 = 1                                     (H1 = H2 = 1/2)

— the cross term is the product over coordinates of the inner products
c2(H)^2 int p_H(1,x) f_H(1,x) dx = -sin(pi H), which the quadrature here
verifies rather than assumes.  The constraint's residual is
:func:`rectfield.kernels.moving_constraint_residual`, which ``MovingPair``
checks when it is built.

Every covariance in this module is computed by ``cov_from_ma`` from
one-dimensional quadratures of the basis functions (the integrands are
products over coordinates, so the N-dimensional integral factorizes
exactly); singular abscissae {0, s, t} are declared panel edges and the
infinite tails use the same engine as the rest of the package; each
integrand is a product of the basis functions, built once per integral.
The pair itself has a closed form,
``make_kernel(MovingPair(...))`` (see
:class:`rectfield.kernels.MovingPair`); the quadrature here is its
independent oracle, used by the tests and by ``rectfield check --suite
ma``, never by kernel evaluation.  The points s and t of a covariance must
be finite and in the positive orthant, and the imaginary part left by the
coefficients must stay within ``IMAG_TOL`` of the covariance's scale.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .gammafn import _QUADPACK, c2, ma_basis, validate_hurst
from .kernels import (MovingPair, _as_points, _one_point, _points, _sign_key,
                      _sign_vectors, cov_fbs, moving_constraint_residual)
from .quadrature import OracleCheck, QuadratureError, integrate_1d

__all__ = [
    "MAKernel",
    "make_ma_kernel",
    "cov_from_ma",
    "cov_moving_pair",
]

IMAG_TOL = 1e-6           # relative imaginary residual cov_from_ma accepts


def _basis_coefs(h: float, e: int) -> tuple:
    """Coefficients of one coordinate's two basis functions for sign e.

    Gamma(1/2-H)/sqrt(2 pi) (e^{-i beta e}, -e^{i beta e}) with
    beta = pi (H+1/2)/2, and (pi, i e)/sqrt(2 pi) at H = 1/2.
    """
    root = math.sqrt(2 * math.pi)
    if h == 0.5:
        return math.pi / root, 1j * e / root
    beta = math.pi / 2 * (h + 0.5)
    gam = math.gamma(0.5 - h) / root
    return gam * cmath.exp(-1j * beta * e), -gam * cmath.exp(1j * beta * e)


def _check_weights(weights: Mapping, n: int) -> dict:
    W = {_sign_key(e): (float(k), float(phi)) for e, (k, phi) in weights.items()}
    if set(W) != set(_sign_vectors(n)):
        raise ValueError(f"need all {2**n} sign vectors of length {n}")
    for e, (k, phi) in W.items():
        if not (math.isfinite(k) and math.isfinite(phi)):
            raise ValueError(f"K{e} = {k:g} and phi{e} = {phi:g} must be finite")
        neg = tuple(-v for v in e)
        if k < 0.0:
            raise ValueError(f"K{e} = {k:g} is negative")
        if W[neg][0] != k:
            raise ValueError(f"K{e} != K{neg}")
        if W[neg][1] != -phi:
            raise ValueError(f"phase antisymmetry violated at {e}")
    return W


@dataclass(frozen=True)
class MAKernel:
    """Moving-average kernel sum_k c_k prod_j basis_{b_kj}(t_j, x_j).

    ``terms`` is ((c_1, (b_11, ..., b_1N)), ...): complex coefficients, each
    with one basis number b in {0, 1} per coordinate.  Calling the kernel at
    finite (t, x) of its dimension gives its complex value; on the singular
    hyperplanes where a basis function is infinite (x_j in {0, t_j} for
    H_j <= 1/2) it gives the explicit marker complex(inf, inf).
    """

    H: tuple
    terms: tuple

    @property
    def n(self) -> int:
        return len(self.H)

    def __call__(self, t, x) -> complex:
        t, x = (_one_point(_points(p, self.n)) for p in (t, x))
        vals = [tuple(b(float(tj), float(xj)) for b in ma_basis(h))
                for h, tj, xj in zip(self.H, t, x)]
        if not all(math.isfinite(v) for pair in vals for v in pair):
            # integrable singularity; complex arithmetic would turn the
            # infinity into NaN, so return the marker directly
            return complex(math.inf, math.inf)
        return complex(sum(c * math.prod(v[b] for v, b in zip(vals, bs))
                           for c, bs in self.terms))


def make_ma_kernel(H, weights: Mapping) -> MAKernel:
    """Kernel of the weight table {e: (K_e, phi_e)} over sign vectors e.

    sum_e sqrt(K_e) e^{i phi_e} prod_j (factor of coordinate j for sign
    e_j), each factor a combination of the coordinate's two basis functions
    (``_basis_coefs``), expanded into one coefficient per basis choice b in
    {0, 1}^N.
    """
    H = validate_hurst(H)
    W = _check_weights(weights, len(H))
    terms = []
    for bs in itertools.product((0, 1), repeat=len(H)):
        c = sum(math.sqrt(k) * cmath.exp(1j * phi)
                * math.prod(_basis_coefs(h, ej)[bj]
                            for h, ej, bj in zip(H, e, bs))
                for e, (k, phi) in W.items())
        terms.append((c, bs))
    return MAKernel(H, tuple(terms))


# --------------------------------------------------------------------------
# Coordinate inner products (one-dimensional quadratures)
# --------------------------------------------------------------------------

@lru_cache(maxsize=4096)
def _power_inner(h: float, kind: str, t: float, s: float) -> float:
    """int k1(t, x) k2(s, x) dx for k1, k2 in {p, f} coded as 'pp', 'pf', ...."""
    # supports: p(t, .) lives on (-inf, t), f(t, .) on (0, inf)
    lo1, hi1 = (-math.inf, t) if kind[0] == "p" else (0.0, math.inf)
    lo2, hi2 = (-math.inf, s) if kind[1] == "p" else (0.0, math.inf)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo >= hi:
        return 0.0
    basis = dict(zip("pf", ma_basis(h)))
    k1, k2 = basis[kind[0]], basis[kind[1]]
    # cuts at +-1 beyond {0, s, t} keep the power singularities on finite
    # panels; the slow tails (|x|^{2H-3}, H near 1) are certified only to
    # ~1e-9, so 1e-8 per panel still leaves the 1e-3 covariance contract
    # intact (integrate_1d asks each panel for a quarter of its tol)
    cuts = (0.0, s, t, -1.0, max(s, t) + 1.0)
    return integrate_1d(lambda x: k1(t, x) * k2(s, x), lo, hi, tol=4 * 1e-8,
                        singular_points=cuts).value


@lru_cache(maxsize=4096)
def _log_inner_il(t: float, s: float) -> float:
    """int_0^t log(|s-x|/|x|) dx; 0 on the empty range t = 0."""
    if t == 0.0:
        return 0.0
    log = ma_basis(0.5)[1]
    return integrate_1d(lambda x: log(s, x), 0.0, t, tol=4 * 1e-10,
                        singular_points=(s,)).value


@lru_cache(maxsize=4096)
def _log_inner_ll(t: float, s: float) -> float:
    """int_R log(|t-x|/|x|) log(|s-x|/|x|) dx."""
    cuts = (0.0, s, t, -1.0, max(s, t) + 1.0)
    log = ma_basis(0.5)[1]
    return integrate_1d(lambda x: log(t, x) * log(s, x),
                        -math.inf, math.inf, tol=4 * 1e-9,
                        singular_points=cuts).value


def _inner(h: float, a: int, b: int, t: float, s: float) -> float:
    """int basis_a(t, x) basis_b(s, x) dx for one coordinate."""
    if h != 0.5:
        return _power_inner(h, "pf"[a] + "pf"[b], t, s)
    if a == b:
        return min(t, s) if a == 0 else _log_inner_ll(t, s)
    return _log_inner_il(t, s) if a == 0 else _log_inner_il(s, t)


def cov_from_ma(kernel: MAKernel, s, t) -> float:
    """Covariance int g(t, x) conj(g(s, x)) dx of a moving-average kernel.

    sum_{k,l} c_k conj(c_l) prod_j int basis_{b_kj}(t_j, x) basis_{b_lj}(s_j,
    x) dx: the N-dimensional integral is evaluated exactly as a product of
    one-dimensional quadratures per pair of terms, and pairs with a zero
    coefficient are skipped.  The imaginary part must cancel by weight
    symmetry; a residual beyond ``IMAG_TOL`` raises.
    """
    s, t = (_one_point(_as_points(p, kernel.n)) for p in (s, t))
    total = 0.0 + 0.0j
    for ck, bk in kernel.terms:
        if ck == 0.0:
            continue
        for cl, bl in kernel.terms:
            if cl == 0.0:
                continue
            total += ck * cl.conjugate() * math.prod(
                _inner(h, a, b, float(tj), float(sj))
                for h, a, b, tj, sj in zip(kernel.H, bk, bl, t, s))
    scale = max(abs(total), 1.0)
    if abs(total.imag) > IMAG_TOL * scale:
        raise QuadratureError(
            f"imaginary residual {total.imag:g} exceeds tolerance; "
            "weight table is inconsistent")
    return float(total.real)


def cov_moving_pair(spec: MovingPair, s, t) -> float:
    """Quadrature covariance of the two-parameter past/future moving average.

    The oracle for the closed form ``make_kernel(spec)``: ``cov_from_ma`` of
    the terms d0 c2(H1) c2(H2) (p p) + d1 c2(H1) c2(H2) (f f), or at
    H = (1/2, 1/2) of d0 (1 1) + d1/pi^2 (log log).
    """
    if spec.h1 == 0.5:
        c0, c1 = spec.d0, spec.d1 / math.pi**2
    else:
        c = c2(spec.h1) * c2(spec.h2)
        c0, c1 = spec.d0 * c, spec.d1 * c
    return cov_from_ma(MAKernel((spec.h1, spec.h2),
                                ((c0, (0, 0)), (c1, (1, 1)))), s, t)


def ma_suite():
    """``rectfield check --suite ma``'s rows: [(OracleCheck, tol)]."""
    checks = []
    d = 1.0 / math.sqrt(3.0)
    for h1, h2, d0, d1 in ((0.3, 0.7, 1.0, 0.0), (0.5, 0.5, 1.0, 0.0),
                           (0.5, 0.5, 0.0, 1.0), (0.25, 0.25, d, d)):
        res = moving_constraint_residual(h1, h2, d0, d1)
        checks.append((OracleCheck("dd_constraint", {
            "H": [h1, h2], "d0": d0, "d1": d1}, res, 0.0), 1e-12))
    spec = MovingPair(0.3, 0.7, 1.0, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(4):
        s, t = rng.uniform(0.3, 2.0, 2), rng.uniform(0.3, 2.0, 2)
        got = cov_moving_pair(spec, s, t)
        want = cov_fbs((0.3, 0.7), s, t)
        checks.append((OracleCheck("ma_reproduces_fbs", {
            "s": list(s), "t": list(t)}, got, want), 1e-3))
    sin2 = math.sin(math.pi * 0.3) * math.sin(math.pi * 0.7)
    for d0 in (1.0, 0.4, -0.6):
        d1 = -d0 * sin2 + math.sqrt(max(d0 * d0 * (sin2 * sin2 - 1.0) + 1.0, 0.0))
        sp = MovingPair(0.3, 0.7, d0, d1)
        got = cov_moving_pair(sp, (1.0, 1.0), (1.0, 1.0))
        checks.append((OracleCheck("unit_variance_on_constraint",
                                   {"d0": d0, "d1": d1}, got, 1.0), 1e-3))
    sp = MovingPair(0.5, 0.5, 0.0, 1.0)
    got = cov_moving_pair(sp, (1.0, 1.0), (1.0, 1.0))
    checks.append((OracleCheck("unit_variance_half_pair",
                               {"d0": 0.0, "d1": 1.0}, got, 1.0), 1e-3))
    return checks


ma_suite.scipy = (_QUADPACK,)   # the SciPy modules it calls
