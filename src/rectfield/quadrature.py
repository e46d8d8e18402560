"""Adaptive quadrature engine and integral-identity oracles.

Two kinds of surface live here. ``integrate_1d`` and
``oscillatory_power_integral`` are the generic engines.  Each panel is one
call of ``quad``, which calls SciPy's compiled QUADPACK routines directly
on four routes: QAGS on a finite range, QAGI with either end or both
infinite, QAWS for power singularities at the ends of a finite range, and
QAWF (Fourier weight, cycle summation with epsilon-algorithm
acceleration) on [a, inf) for oscillatory tails.  The extension is loaded
from its file at the first call (``gammafn._scipy_extension``), and
``scipy.integrate`` is never imported.  QUADPACK's limits are module
constants: relative tolerance ``EPSREL``, ``LIMIT`` subintervals, and on
a Fourier tail ``LIMLST`` cycles and ``MAXP1`` Chebyshev moments.

``oscillatory_power_integral`` takes its cosine part and its sine part
by one rule.  The origin panel [0, 1] divides the bracket
sum_k c_k cos|sin(a_k y) + const by y^n, n its first Taylor order that
does not cancel, and integrates it by QAWS, which needs p < n + 1.  On
the tail each term's int_1^inf y^{-p} cos|sin(omega y) dy needs p > 0,
and the constant's exact const / (p - 1) needs p > 1.  A power tail
depends only on (p, kind, omega, epsabs), so each one is integrated once
per process and memoized; a repeated tail charges the caller's budget
the evaluations of its first computation, so a budget error never
depends on call order.

On top of them sit the identity checks: ``check_increment_integral`` and
``check_ma_transform`` each evaluate one of the closed-form integrals

    int_0^inf (e^{ity}-1)(e^{-isy}-1) / y^{2H+1} dy
    int_0^inf (e^{i(t-x)e y} - e^{-i x e y}) / (i e y^{H+1/2}) dy

for H in (0, 1), H = 1/2 (the square and 1/y weights) included, by
independent quadrature *and* by its closed form, returning both so that
callers can confirm agreement without trusting either route; the
covariance and moving-average formulas of the package rest on them.  The
checks integrate to ``ORACLE_TOL``, and every integral stops with
``QuadratureError`` past ``BUDGET`` integrand evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .gammafn import _QUADPACK, _scipy_extension, ma_basis, validate_hurst

__all__ = [
    "QuadratureError",
    "QuadResult",
    "OracleCheck",
    "integrate_1d",
    "oscillatory_power_integral",
    "check_increment_integral",
    "check_ma_transform",
    "identity_sweep",
]

BUDGET = 100_000      # integrand evaluations per integral, read at each call
ORACLE_TOL = 1e-9     # absolute tolerance of the identity checks' quadrature

EPSREL = 1e-10    # QUADPACK's relative tolerance (QAWF has none)
LIMIT = 300       # subintervals per call, per cycle on a Fourier tail
LIMLST = 100      # cycles of a Fourier tail
MAXP1 = 50        # Chebyshev moments per Fourier cycle

_FOURIER = {"cos": 1, "sin": 2}
_IER = {1: "the subdivision limit (on a Fourier tail, the cycle limit) "
           "was reached",
        2: "roundoff error prevents the requested tolerance",
        3: "the integrand behaves extremely badly",
        4: "the extrapolation does not converge",
        5: "the integral is probably divergent or converges slowly",
        7: "the routine terminated abnormally"}


def quad(func, a, b, epsabs, weight=None, wvar=None):
    """One QUADPACK call on [a, b], a < b: (value, err, infodict, ier).

    QAGS on a finite range, QAGI with either end or both infinite, QAWS
    for ``weight="alg"`` on a finite range, and QAWF for ``"cos"``/``"sin"``
    on [a, inf), at the module's constants; the result is
    ``scipy.integrate.quad``'s full output with QUADPACK's ``ier`` appended.
    Any other weight or range raises ``ValueError``, and so does an ``ier``
    outside ``_IER``: 6 is QUADPACK rejecting its input.
    """
    qp = _scipy_extension(_QUADPACK)
    if weight is None and (a == -math.inf or b == math.inf):
        # QAGI's range: [bound, inf) (1), (-inf, bound] (-1) or the line (2)
        bound, inf = ((a, 1) if a > -math.inf else (b, -1) if b < math.inf
                      else (0.0, 2))
        out = qp._qagie(func, bound, inf, (), 1, epsabs, EPSREL, LIMIT)
    elif weight is None:
        out = qp._qagse(func, a, b, (), 1, epsabs, EPSREL, LIMIT)
    elif weight == "alg" and math.isfinite(a) and math.isfinite(b):
        out = qp._qawse(func, a, b, wvar, 1, (), 1, epsabs, EPSREL, LIMIT)
    elif weight in _FOURIER and math.isfinite(a) and b == math.inf:
        out = qp._qawfe(func, a, wvar, _FOURIER[weight], (), 1, epsabs,
                        LIMLST, LIMIT, MAXP1)
    else:   # QUADPACK would return nan
        raise ValueError(f"weight {weight!r} on [{a}, {b}]: expected None, "
                         f"'alg' on a finite range or 'cos'/'sin' on "
                         f"[a, inf)")
    ier = out[3]
    if ier and ier not in _IER:
        raise ValueError(f"QUADPACK rejected its input (ier={ier})")
    return out


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance or exceeded budget."""


@dataclass
class QuadResult:
    """An integral, its error estimate, and the integrand evaluations it
    cost (``panels_used``, QUADPACK's ``neval`` summed over the panels)."""

    value: complex
    abs_error_estimate: float
    panels_used: int


class _Budget:
    """Shared evaluation counter; overruns are hard errors, never best-effort.

    The limit is ``BUDGET`` as it reads when the counter is made.
    """

    def __init__(self, limit=None):
        self.limit = BUDGET if limit is None else limit
        self.used = 0

    def charge(self, n: int):
        self.used += int(n)
        if self.used > self.limit:
            raise QuadratureError(
                f"evaluation budget exceeded ({self.used} > {self.limit})")


def _quad_panel(f, a, b, budget, epsabs, weight=None, wvar=None):
    """One QUADPACK call with budget accounting; returns (value, err_estimate)."""
    if weight in _FOURIER and not math.isfinite(wvar):   # QAWF crashes
        raise ValueError(f"{weight} weight needs a finite frequency, got {wvar!r}")
    val, err, info, ier = quad(f, a, b, epsabs, weight, wvar)
    budget.charge(info["neval"])
    if ier and err > 10 * max(epsabs, abs(val) * EPSREL):
        raise QuadratureError(f"panel [{a}, {b}] did not converge: "
                              f"QUADPACK ier={ier}: {_IER[ier]}")
    return val, err


def integrate_1d(f, a, b, tol=1e-10, singular_points=()):
    """Adaptive integral of ``f`` over [a, b]; either end may be infinite.

    ``singular_points`` lists abscissae (endpoints or interior) where the
    integrand is singular; panels are split there so QUADPACK's
    extrapolation sees each singularity at a panel edge.

    Returns a :class:`QuadResult`; raises :class:`QuadratureError` past
    ``BUDGET`` evaluations or on non-convergence, and ``ValueError`` on an
    empty range or a ``tol`` that is not finite and positive.
    """
    if not a < b:
        raise ValueError(f"empty integration range [{a}, {b}]")
    if not 0.0 < tol < math.inf:   # NaN would pass _quad_panel's guard
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    bud = _Budget()
    cuts = sorted(p for p in set(float(x) for x in singular_points) if a < p < b)
    edges = [a] + cuts + [b]
    total, err_total = 0.0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        v, e = _quad_panel(f, lo, hi, bud, epsabs=tol * 0.25)
        total += v
        err_total += e
    return QuadResult(total, err_total, bud.used)


# --------------------------------------------------------------------------
# Oscillatory power-weighted integrals on [0, inf)
# --------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _power_tail(p, kind, omega, epsabs):
    """(value, err_estimate, neval) of int_1^inf y^{-p} kind(omega y) dy.

    One QAWF panel on an unlimited budget; callers charge their own.
    """
    bud = _Budget(math.inf)
    v, e = _quad_panel(lambda y: y**-p, 1.0, np.inf, bud, epsabs=epsabs,
                       weight=kind, wvar=omega)
    return v, e, bud.used


def _power(x, n):
    """x^n with the square as a product, which pow does not always match."""
    return x * x if n == 2 else x**n


def _bracket(trig, terms, order, const=0.0):
    """y -> [sum_k c_k trig(a_k y) + const] / y^order on the origin panel.

    At order > 0 the constant is -sum_k c_k trig(0), which cancels the sum
    at y = 0, and below y = 1e-4 the bracket is its Taylor series
    T_order + y^2 T_{order+2}, T_j = (-1)^(j//2) sum_k c_k a_k^j / j!.
    """
    if not order:
        return lambda y: sum(c * trig(a * y) for c, a in terms) + const
    const = -sum(c * trig(0.0) for c, _ in terms)
    lead, nxt = ((-1) ** (j // 2) * sum(c * _power(a, j) for c, a in terms)
                 for j in (order, order + 2))
    lead /= math.factorial(order)
    fact = math.factorial(order + 2)

    def bracket(y):
        if y < 1e-4:
            return lead + y * y * nxt / fact
        return (sum(c * trig(a * y) for c, a in terms) + const) / _power(y, order)
    return bracket


def _part(trig, terms, const, p, budget, epsabs):
    """(value, [err_estimate, ...]) of int_0^inf [sum_k c_k trig(a_k y) +
    const] / y^p dy, trig cos or sin, by the module's origin-and-tail rule.

    Zero frequencies join the constant, and the bracket's order is its
    first Taylor order that does not cancel: 0 or 2 for cos, 1 or 3 for sin.
    """
    kind = trig.__name__          # the Fourier weight of the tails
    order = int(kind == "sin")
    live = [(c, a) for c, a in terms if a != 0.0]
    if order and not live:        # sin(0 y) = 0
        return 0.0, []
    scale = sum(abs(c * _power(a, order)) for c, a in terms) + abs(const) + 1.0
    const += sum(c * trig(0.0) for c, a in terms if a == 0.0)
    # the first Taylor term, const + sum_k c_k a_k^order, as 0! = 1! = 1
    if abs(const + sum(c * _power(a, order) for c, a in live)) <= 1e-12 * scale:
        order += 2
    if not p < order + 1:
        raise QuadratureError(f"divergent at origin: the {kind} bracket is "
                              f"O(y^{order}) and p={p} >= {order + 1}")
    if live and not p > 0:
        raise QuadratureError(f"divergent tail: {kind} terms with p={p} <= 0")
    if const != 0.0 and not p > 1:
        raise QuadratureError(f"divergent tail: constant part with p={p} <= 1")
    value, e = _quad_panel(_bracket(trig, live, order, const), 0.0, 1.0,
                           budget, epsabs, weight="alg", wvar=(order - p, 0.0))
    errs = [e]
    if const != 0.0:
        value += const / (p - 1.0)
    for c, a in live:
        v, e, neval = _power_tail(p, kind, abs(a), epsabs)
        budget.charge(neval)      # as if integrated here
        value += c * (math.copysign(1.0, a) if kind == "sin" else 1.0) * v
        errs.append(e)
    return value, errs


def oscillatory_power_integral(p, cos_terms=(), sin_terms=(), const=0.0,
                               tol=1e-10):
    """int_0^inf [sum_k c_k cos(a_k y) + const + i sum_k d_k sin(b_k y)] / y^p dy.

    Both parts take the module's one origin-and-tail rule (``_part``).
    Raises ``QuadratureError`` if a part diverges, and ``ValueError``
    naming the term if p, const or a coefficient or frequency is not finite,
    or naming ``tol`` if it is not finite and positive.
    """
    cos_terms = [(float(c), float(a)) for c, a in cos_terms]
    sin_terms = [(float(d), float(b)) for d, b in sin_terms]
    const = float(const)
    named = {"p": p, "const": const,
             **{f"cos_terms[{k}]": v for k, v in enumerate(cos_terms)},
             **{f"sin_terms[{k}]": v for k, v in enumerate(sin_terms)}}
    for name, value in named.items():
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0.0 < tol < math.inf:   # NaN would pass _quad_panel's guard
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    bud = _Budget()
    re, re_errs = _part(math.cos, cos_terms, const, p, bud, tol * 0.25)
    im, im_errs = _part(math.sin, sin_terms, 0.0, p, bud, tol * 0.25)
    err = 0.0
    for e in re_errs + im_errs:   # left to right: sum() compensates from 3.12
        err += e
    return QuadResult(complex(re, im), err, bud.used)


# --------------------------------------------------------------------------
# Identity checks: quadrature vs closed form
# --------------------------------------------------------------------------

@dataclass
class OracleCheck:
    identity: str
    params: dict
    numeric: complex
    closed: complex
    err_estimate: float = 0.0

    @property
    def abs_error(self) -> float:
        return abs(self.numeric - self.closed)

    def passed(self, tol: float) -> bool:
        return self.abs_error <= tol


def _sgn(x: float) -> float:
    return math.copysign(1.0, x) if x != 0.0 else 0.0


def _xlogx(x: float) -> float:
    return x * math.log(abs(x)) if x != 0.0 else 0.0


def check_increment_integral(H, s, t) -> OracleCheck:
    """int_0^inf (e^{ity}-1)(e^{-isy}-1)/y^{2H+1} dy vs its closed form.

    Closed form: pi / (Gamma(1+2H) sin(2 pi H)) times
    e^{-i pi H sgn t}|t|^{2H} + e^{+i pi H sgn s}|s|^{2H}
    - e^{-i pi H sgn(t-s)}|t-s|^{2H}, and at H = 1/2 its limit
    pi/2 (|t| + |s| - |t-s|) + i (t log|t| - s log|s| - (t-s) log|t-s|).
    """
    (H,), s, t = validate_hurst((H,)), float(s), float(t)
    res = oscillatory_power_integral(
        2 * H + 1,
        cos_terms=[(1.0, t - s), (-1.0, t), (-1.0, s)],
        sin_terms=[(1.0, t - s), (1.0, s), (-1.0, t)],
        const=1.0, tol=ORACLE_TOL)
    if H == 0.5:
        closed = complex(math.pi / 2 * (abs(t) + abs(s) - abs(t - s)),
                         _xlogx(t) - _xlogx(s) - _xlogx(t - s))
        return OracleCheck("increment_half", {"s": s, "t": t},
                           res.value, closed, res.abs_error_estimate)
    pref = math.pi / (math.gamma(1 + 2 * H) * math.sin(2 * math.pi * H))

    def term(x):
        return np.exp(-1j * math.pi * H * _sgn(x)) * abs(x)**(2 * H)

    closed = pref * (term(t) + np.conj(term(s)) - term(t - s))
    return OracleCheck("increment_power", {"H": H, "s": s, "t": t},
                       res.value, complex(closed), res.abs_error_estimate)


def check_ma_transform(H, eps, t, x) -> OracleCheck:
    """Half-line Fourier transform of the fractional moving-average kernel.

    int_0^inf (e^{i(t-x) eps y} - e^{-i x eps y})/(i eps y^{H+1/2}) dy
    against Gamma(1/2-H) [ p e^{-i eps beta} - f e^{+i eps beta} ] with
    beta = pi (H + 1/2)/2 and p, f the one-sided power parts at (t, x),
    the two functions of ``gammafn.ma_basis(H)``.  At H = 1/2 it is
    pi/2 (sgn(t-x) + sgn x) + i eps log(|t-x|/|x|), the log ratio being the
    basis's second function, with x off its logarithmic singularities
    {0, t}; the real part is
    pi 1_[0,t](x) for t > 0 and -pi 1_[t,0](x) for t < 0, the imaginary
    part's sign follows the
    Frullani integral int_0^inf (cos(a y) - cos(b y))/y dy = log(b/a),
    confirmed here by the quadrature route.
    """
    if eps not in (-1, 1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    (H,), eps, t, x = validate_hurst((H,)), int(eps), float(t), float(x)
    if H == 0.5 and (x == 0.0 or x == t):
        raise ValueError("x must avoid the logarithmic singularities {0, t}")
    a1, a2 = t - x, x
    res = oscillatory_power_integral(
        H + 0.5,
        cos_terms=[(-eps, a1), (eps, a2)],
        sin_terms=[(1.0, a1), (1.0, a2)],
        tol=ORACLE_TOL)
    # the i*eps division swaps roles: the sin bracket is the real part of the
    # target and the cos bracket its imaginary part
    numeric = complex(res.value.imag, res.value.real)
    p_part, f_part = (b(t, x) for b in ma_basis(H))
    if H == 0.5:   # f_part is the log ratio; the indicator covers t > 0 only
        closed = complex(math.pi / 2 * (_sgn(t - x) + _sgn(x)), eps * f_part)
        return OracleCheck("ma_transform_half", {"eps": eps, "t": t, "x": x},
                           numeric, closed, res.abs_error_estimate)
    g = math.gamma(0.5 - H)
    beta = math.pi / 2 * (H + 0.5)
    closed = g * (p_part * np.exp(-1j * eps * beta) - f_part * np.exp(1j * eps * beta))
    return OracleCheck("ma_transform", {"H": H, "eps": eps, "t": t, "x": x},
                       numeric, complex(closed), res.abs_error_estimate)


# --------------------------------------------------------------------------
# Documented parameter sweep (used by tests and the `check` CLI suite)
# --------------------------------------------------------------------------

SWEEP_H = (0.1, 0.3, 0.7, 0.9)
SWEEP_ST = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (0.5, 3.0))


def identity_sweep() -> list[OracleCheck]:
    """Full oracle sweep: each identity over the documented parameter grid,
    at every H of ``SWEEP_H`` and then at H = 1/2."""
    checks = [check_increment_integral(H, s, t)
              for H in SWEEP_H + (0.5,) for s, t in SWEEP_ST]
    t = 1.0
    return checks + [check_ma_transform(H, eps, t, x)
                     for H in SWEEP_H + (0.5,)
                     for x in (-1.0, t / 2, t + 1.0)  # one per support bracket
                     for eps in (1, -1)]


identity_sweep.scipy = (_QUADPACK,)   # the compiled SciPy modules it calls
