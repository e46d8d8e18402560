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

A power tail int_1^inf y^{-p} cos|sin(omega y) dy depends only on
(p, kind, omega, epsabs), so each one is integrated once per process and
memoized; a repeated tail charges the caller's budget the evaluations of
its first computation, so a budget error never depends on call order.

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
    ``BUDGET`` evaluations or on non-convergence.
    """
    if not a < b:
        raise ValueError(f"empty integration range [{a}, {b}]")
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


def _tail_panel(p, kind, omega, budget, epsabs):
    """The memoized power tail, charged to ``budget`` as if integrated here."""
    v, e, neval = _power_tail(p, kind, omega, epsabs)
    budget.charge(neval)
    return v, e


def _series_guarded(terms, fn_even, order):
    """Bracket(y)/y^order with a Taylor branch below y=1e-4.

    ``terms`` is [(coeff, freq), ...]; fn_even selects cos (order-2 bracket,
    coefficients summing to zero with the constant) or sin brackets.
    """
    if fn_even:
        def bracket(y):
            if y < 1e-4:
                s2 = sum(c * a * a for c, a in terms)
                s4 = sum(c * a**4 for c, a in terms)
                return -s2 / 2 + y * y * s4 / 24
            acc = sum(c * math.cos(a * y) for c, a in terms)
            return (acc - sum(c for c, _ in terms)) / (y * y)
    elif order == 1:
        def bracket(y):
            if y < 1e-4:
                s1 = sum(d * b for d, b in terms)
                s3 = sum(d * b**3 for d, b in terms)
                return s1 - y * y * s3 / 6
            return sum(d * math.sin(b * y) for d, b in terms) / y
    else:
        def bracket(y):
            if y < 1e-4:
                s3 = sum(d * b**3 for d, b in terms)
                s5 = sum(d * b**5 for d, b in terms)
                return -s3 / 6 + y * y * s5 / 120
            return sum(d * math.sin(b * y) for d, b in terms) / (y**3)
    return bracket


def oscillatory_power_integral(p, cos_terms=(), sin_terms=(), const=0.0,
                               tol=1e-10):
    """int_0^inf [sum_k c_k cos(a_k y) + const + i sum_k d_k sin(b_k y)] / y^p dy.

    The origin panel [0, 1] absorbs the power weight with QAWS after
    factoring the cancellation order out of the trigonometric bracket; the
    tail pairs the exact integral of the constant part with one memoized
    QAWF call per distinct frequency (``_power_tail``).  Raises if the
    requested combination diverges (e.g. a non-cancelling constant with
    p >= 1), and ``ValueError`` naming the term if p, const or a
    coefficient or frequency is not finite.
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
    bud = _Budget()
    scale = sum(abs(c) for c, _ in cos_terms) + abs(const) + 1.0

    # constants: zero-frequency cosines behave exactly like `const`
    const_all = const + sum(c for c, a in cos_terms if a == 0.0)
    cos_live = [(c, a) for c, a in cos_terms if a != 0.0]
    sin_live = [(d, b) for d, b in sin_terms if b != 0.0]
    k0 = const_all + sum(c for c, _ in cos_live)

    re_total, im_total, err = 0.0, 0.0, 0.0

    # real part, origin panel
    if abs(k0) <= 1e-12 * scale:
        if not p < 3:
            raise QuadratureError(f"power p={p} out of range for cos bracket")
        f = _series_guarded(cos_live, fn_even=True, order=2)
        v, e = _quad_panel(f, 0.0, 1.0, bud, epsabs=tol * 0.25,
                           weight="alg", wvar=(2.0 - p, 0.0))
    elif p < 1:
        def f(y):
            return sum(c * math.cos(a * y) for c, a in cos_live) + const_all
        v, e = _quad_panel(f, 0.0, 1.0, bud, epsabs=tol * 0.25,
                           weight="alg", wvar=(-p, 0.0))
    else:
        raise QuadratureError(
            f"divergent at origin: constant part {k0:g} with p={p} >= 1")
    re_total += v
    err += e

    # real part, tail
    if const_all != 0.0:
        if not p > 1:
            raise QuadratureError(f"divergent tail: constant part with p={p} <= 1")
        re_total += const_all / (p - 1.0)
    for c, a in cos_live:
        v, e = _tail_panel(p, "cos", abs(a), bud, tol * 0.25)
        re_total += c * v
        err += e

    # imaginary part
    if sin_live:
        s1 = sum(d * b for d, b in sin_live)
        s_scale = sum(abs(d * b) for d, b in sin_live) + 1.0
        if abs(s1) <= 1e-12 * s_scale:
            if not p < 4:
                raise QuadratureError(f"power p={p} out of range for sin bracket")
            f = _series_guarded(sin_live, fn_even=False, order=3)
            alpha = 3.0 - p
        else:
            if not p < 2:
                raise QuadratureError(
                    f"divergent at origin: sin bracket O(y) with p={p} >= 2")
            f = _series_guarded(sin_live, fn_even=False, order=1)
            alpha = 1.0 - p
        v, e = _quad_panel(f, 0.0, 1.0, bud, epsabs=tol * 0.25,
                           weight="alg", wvar=(alpha, 0.0))
        im_total += v
        err += e
        for d, b in sin_live:
            v, e = _tail_panel(p, "sin", abs(b), bud, tol * 0.25)
            im_total += d * math.copysign(1.0, b) * v
            err += e

    return QuadResult(complex(re_total, im_total), err, bud.used)


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
