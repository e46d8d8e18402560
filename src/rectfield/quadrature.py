"""Adaptive quadrature engine and integral-identity oracles.

Two kinds of surface live here. ``integrate_1d`` and
``oscillatory_power_integral`` are the generic engines: QUADPACK adaptive
panels for finite/half-infinite ranges with declared singular points,
algebraic-weight rules (QAWS) for power singularities at the origin, and
Fourier-weight rules with cycle acceleration (QAWF) for oscillatory tails.

On top of them sit the identity checks: each ``check_*`` function evaluates
one of the closed-form integrals

    int_0^inf (e^{ity}-1)(e^{-isy}-1) / y^{2H+1} dy          (power case)
    int_0^inf (e^{ity}-1)(e^{-isy}-1) / y^2 dy               (H = 1/2 case)
    int_0^inf (e^{i(t-x)e y} - e^{-i x e y}) / (i e y^{H+1/2}) dy
    int_0^inf (e^{i(t-x)e y} - e^{-i x e y}) / (i e y) dy

by independent quadrature *and* by its closed form, returning both so that
callers can confirm agreement without trusting either route.  These
integrals are the analytic backbone of the covariance and moving-average
formulas in the rest of the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .gammafn import pow_plus

__all__ = [
    "QuadratureError",
    "QuadResult",
    "OracleCheck",
    "integrate_1d",
    "oscillatory_power_integral",
    "check_increment_integral",
    "check_increment_integral_half",
    "check_ma_transform",
    "check_ma_transform_half",
    "identity_sweep",
]

DEFAULT_BUDGET = 100_000


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance or exceeded budget."""


@dataclass
class QuadResult:
    value: complex
    abs_error_estimate: float
    panels_used: int
    converged: bool


class _Budget:
    """Shared evaluation counter; overruns are hard errors, never best-effort."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, n: int):
        self.used += int(n)
        if self.used > self.limit:
            raise QuadratureError(
                f"evaluation budget exceeded ({self.used} > {self.limit})")


def _quad_panel(f, a, b, budget, epsabs, epsrel=1e-10, weight=None, wvar=None):
    """One QUADPACK call with budget accounting; returns (value, err_estimate)."""
    if weight in ("cos", "sin") and not math.isfinite(wvar):   # QAWF crashes
        raise ValueError(f"{weight} weight needs a finite frequency, got {wvar!r}")
    kwargs = {"full_output": 1, "epsabs": epsabs, "epsrel": epsrel, "limit": 300}
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
        if np.isinf(b):
            kwargs["limlst"] = 100
    out = quad(f, a, b, **kwargs)
    val, err, info = out[0], out[1], out[2]
    budget.charge(info.get("neval", 0))
    ier = 0 if len(out) == 3 else 1
    if ier and err > 10 * max(epsabs, abs(val) * epsrel):
        msg = out[3] if len(out) > 3 else "no detail"
        raise QuadratureError(f"panel [{a}, {b}] did not converge: {msg}")
    return val, err


def integrate_1d(f, a, b, tol=1e-10, singular_points=(), oscillation=None,
                 budget=DEFAULT_BUDGET):
    """Adaptive integral of ``f`` over [a, b], b possibly infinite.

    ``singular_points`` lists abscissae (endpoints or interior) where the
    integrand is singular; panels are split there so QUADPACK's
    extrapolation sees each singularity at a panel edge.  With
    ``oscillation=("cos"|"sin", omega)``, omega finite, the integrand is
    ``f(x)`` times that factor and infinite tails are integrated with the
    Fourier rule (cycle summation plus epsilon-algorithm acceleration).

    Returns a :class:`QuadResult`; raises :class:`QuadratureError` on
    budget exhaustion or non-convergence.
    """
    if not a < b:
        raise ValueError(f"empty integration range [{a}, {b}]")
    bud = _Budget(budget)
    cuts = sorted(p for p in set(float(x) for x in singular_points) if a < p < b)
    edges = [a] + cuts + [b]
    if oscillation is not None:
        kind, omega = oscillation
        if kind not in ("cos", "sin") or not math.isfinite(omega):
            raise ValueError(f"oscillation must be ('cos' or 'sin', a finite "
                             f"frequency), got {oscillation!r}")
        osc = np.cos if kind == "cos" else np.sin
        if np.isinf(b) and not cuts:
            # keep the Fourier tail away from the lower endpoint, where the
            # smooth factor may be singular; the finite panel sees the full
            # integrand at interior nodes only
            cuts = [a + 1.0]
            edges = [a] + cuts + [b]

    total, err_total = 0.0, 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        if oscillation is None:
            v, e = _quad_panel(f, lo, hi, bud, epsabs=tol * 0.25)
        elif np.isinf(hi):
            v, e = _quad_panel(f, lo, hi, bud, epsabs=tol * 0.25,
                               weight=kind, wvar=omega)
        else:
            v, e = _quad_panel(lambda x: f(x) * osc(omega * x), lo, hi, bud,
                               epsabs=tol * 0.25)
        total += v
        err_total += e
    return QuadResult(total, err_total, bud.used, converged=err_total <= max(tol, 1e-15))


# --------------------------------------------------------------------------
# Oscillatory power-weighted integrals on [0, inf)
# --------------------------------------------------------------------------

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
                               tol=1e-10, budget=DEFAULT_BUDGET):
    """int_0^inf [sum_k c_k cos(a_k y) + const + i sum_k d_k sin(b_k y)] / y^p dy.

    The origin panel [0, 1] absorbs the power weight with QAWS after
    factoring the cancellation order out of the trigonometric bracket; the
    tail pairs the exact integral of the constant part with one QAWF call
    per distinct frequency.  Raises if the requested combination diverges
    (e.g. a non-cancelling constant with p >= 1).
    """
    cos_terms = [(float(c), float(a)) for c, a in cos_terms]
    sin_terms = [(float(d), float(b)) for d, b in sin_terms]
    const = float(const)
    bud = _Budget(budget)
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
        v, e = _quad_panel(lambda y: y**-p, 1.0, np.inf, bud, epsabs=tol * 0.25,
                           weight="cos", wvar=abs(a))
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
            v, e = _quad_panel(lambda y: y**-p, 1.0, np.inf, bud,
                               epsabs=tol * 0.25, weight="sin", wvar=abs(b))
            im_total += d * math.copysign(1.0, b) * v
            err += e

    return QuadResult(complex(re_total, im_total), err, bud.used,
                      converged=err <= max(tol, 1e-15))


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


def check_increment_integral(H, s, t, tol=1e-9) -> OracleCheck:
    """int_0^inf (e^{ity}-1)(e^{-isy}-1)/y^{2H+1} dy vs its closed form, H != 1/2.

    Closed form: pi / (Gamma(1+2H) sin(2 pi H)) times
    e^{-i pi H sgn t}|t|^{2H} + e^{+i pi H sgn s}|s|^{2H}
    - e^{-i pi H sgn(t-s)}|t-s|^{2H}.
    """
    H, s, t = float(H), float(s), float(t)
    if not (0.0 < H < 1.0) or H == 0.5:
        raise ValueError(f"H must lie in (0,1) \\ {{1/2}}, got {H}")
    res = oscillatory_power_integral(
        2 * H + 1,
        cos_terms=[(1.0, t - s), (-1.0, t), (-1.0, s)],
        sin_terms=[(1.0, t - s), (1.0, s), (-1.0, t)],
        const=1.0, tol=tol)
    pref = math.pi / (math.gamma(1 + 2 * H) * math.sin(2 * math.pi * H))

    def term(x):
        return np.exp(-1j * math.pi * H * _sgn(x)) * abs(x)**(2 * H)

    closed = pref * (term(t) + np.conj(term(s)) - term(t - s))
    return OracleCheck("increment_power", {"H": H, "s": s, "t": t},
                       res.value, complex(closed), res.abs_error_estimate)


def check_increment_integral_half(s, t, tol=1e-9) -> OracleCheck:
    """The same cross integral at the square-weight specialization (H = 1/2)."""
    s, t = float(s), float(t)
    res = oscillatory_power_integral(
        2.0,
        cos_terms=[(1.0, t - s), (-1.0, t), (-1.0, s)],
        sin_terms=[(1.0, t - s), (1.0, s), (-1.0, t)],
        const=1.0, tol=tol)

    def xlogx(x):
        return x * math.log(abs(x)) if x != 0.0 else 0.0

    closed = complex(math.pi / 2 * (abs(t) + abs(s) - abs(t - s)),
                     xlogx(t) - xlogx(s) - xlogx(t - s))
    return OracleCheck("increment_half", {"s": s, "t": t},
                       res.value, closed, res.abs_error_estimate)


def check_ma_transform(H, eps, t, x, tol=1e-9) -> OracleCheck:
    """Half-line Fourier transform of the fractional moving-average kernel.

    int_0^inf (e^{i(t-x) eps y} - e^{-i x eps y})/(i eps y^{H+1/2}) dy
    against Gamma(1/2-H) [ p e^{-i eps beta} - f e^{+i eps beta} ] with
    beta = pi (H + 1/2)/2 and p, f the one-sided power parts at (t, x).
    """
    H, t, x = float(H), float(t), float(x)
    eps = int(eps)
    if eps not in (-1, 1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if not (0.0 < H < 1.0) or H == 0.5:
        raise ValueError(f"H must lie in (0,1) \\ {{1/2}}, got {H}")
    a1, a2 = t - x, x
    res = oscillatory_power_integral(
        H + 0.5,
        cos_terms=[(-eps, a1), (eps, a2)],
        sin_terms=[(1.0, a1), (1.0, a2)],
        tol=tol)
    # the i*eps division swaps roles: the sin bracket is the real part of the
    # target and the cos bracket its imaginary part
    numeric = complex(res.value.imag, res.value.real)
    g = math.gamma(0.5 - H)
    beta = math.pi / 2 * (H + 0.5)
    p_part = pow_plus(t - x, H - 0.5) - pow_plus(-x, H - 0.5)
    f_part = pow_plus(x - t, H - 0.5) - pow_plus(x, H - 0.5)
    closed = g * (p_part * np.exp(-1j * eps * beta) - f_part * np.exp(1j * eps * beta))
    return OracleCheck("ma_transform", {"H": H, "eps": eps, "t": t, "x": x},
                       numeric, complex(closed), res.abs_error_estimate)


def check_ma_transform_half(eps, t, x, tol=1e-9) -> OracleCheck:
    """The H = 1/2 transform: pi 1_[0,t](x) + i eps log(|t-x|/|x|).

    The imaginary part's sign follows the Frullani integral
    int_0^inf (cos(a y) - cos(b y))/y dy = log(b/a), confirmed here by the
    quadrature route.
    """
    t, x = float(t), float(x)
    eps = int(eps)
    if eps not in (-1, 1):
        raise ValueError(f"eps must be +1 or -1, got {eps}")
    if x == 0.0 or x == t:
        raise ValueError("x must avoid the logarithmic singularities {0, t}")
    a1, a2 = t - x, x
    res = oscillatory_power_integral(
        1.0,
        cos_terms=[(-eps, a1), (eps, a2)],
        sin_terms=[(1.0, a1), (1.0, a2)],
        tol=tol)
    numeric = complex(res.value.imag, res.value.real)
    closed = complex(math.pi if 0.0 < x < t else 0.0,
                     eps * (math.log(abs(t - x)) - math.log(abs(x))))
    return OracleCheck("ma_transform_half", {"eps": eps, "t": t, "x": x},
                       numeric, closed, res.abs_error_estimate)


# --------------------------------------------------------------------------
# Documented parameter sweep (used by tests and the `check` CLI suite)
# --------------------------------------------------------------------------

SWEEP_H = (0.1, 0.3, 0.7, 0.9)
SWEEP_ST = ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (0.5, 3.0))


def identity_sweep() -> list[OracleCheck]:
    """Full oracle sweep: every identity over the documented parameter grid."""
    checks = []
    for H in SWEEP_H:
        for s, t in SWEEP_ST:
            checks.append(check_increment_integral(H, s, t))
    for s, t in SWEEP_ST:
        checks.append(check_increment_integral_half(s, t))
    for H in SWEEP_H:
        t = 1.0
        for x in (-1.0, t / 2, t + 1.0):  # one per support bracket
            for eps in (1, -1):
                checks.append(check_ma_transform(H, eps, t, x))
    t = 1.0
    for x in (-1.0, t / 2, t + 1.0):
        for eps in (1, -1):
            checks.append(check_ma_transform_half(eps, t, x))
    return checks
