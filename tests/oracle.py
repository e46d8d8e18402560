"""Scalar closed forms of the kernels, densities and criteria: the tests' reference.

These are the pointwise evaluators of the strict mixture and of the mild
family, written with ``math`` on one pair of points at a time.  The library
evaluates every covariance through its array forms
(``rectfield.kernels.cov_strict_general_array`` and
``cov_mild_theta_array``); the tests check those forms, and everything
built on them (``cov_matrix``, the increment algebra, the classifier, the
Monte Carlo analytic values), against the scalar code here.  Each bracket
is the one named in the ``rectfield.kernels`` module docstring.

The second half holds the same for ``rectfield.lamperti`` and
``rectfield.spectral``: the stationary covariances, the inverse Lamperti
transform, the spectral densities and ``log_cosh`` at one lag or frequency
at a time, and the two sign-flip criteria as a loop over the flips.
"""

import itertools
import math

import numpy as np
from scipy.special import loggamma

from rectfield.kernels import (
    StrictGeneral,
    StrictWeights,
    _float_tuple,
    _warn_theta,
    validate_hurst,
)


def _as_point(p, n=None) -> tuple[float, ...]:
    pt = _float_tuple(p)
    if n is not None and len(pt) != n:
        raise ValueError(f"point has dimension {len(pt)}, expected {n}")
    if not all(0.0 <= v < math.inf for v in pt):
        raise ValueError(
            f"points must be finite and in the positive orthant, got {pt}")
    return pt


def _tlogt(x: float) -> float:
    """x log x with the boundary convention 0 log 0 := 0."""
    return x * math.log(x) if x > 0.0 else 0.0


def _log_bracket(t: float, s: float) -> float:
    """t log t - s log s - (t-s) log|t-s|, each term with 0 log 0 := 0."""
    d = t - s
    tail = d * math.log(abs(d)) if d != 0.0 else 0.0
    return _tlogt(t) - _tlogt(s) - tail


def _sym_bracket(h: float, t: float, s: float) -> float:
    """t^{2H} + s^{2H} - |t-s|^{2H}."""
    e = 2.0 * h
    return t**e + s**e - abs(t - s)**e


def _a_bracket(h: float, t: float, s: float) -> float:
    """The symmetric bracket, in its exact form 2 min(t, s) at H = 1/2."""
    return 2.0 * min(t, s) if h == 0.5 else _sym_bracket(h, t, s)


def _skew_bracket(h: float, t: float, s: float) -> float:
    """-t^{2H} + s^{2H} + sgn(t-s)|t-s|^{2H} with sgn(0) := 0."""
    e = 2.0 * h
    d = t - s
    tail = math.copysign(abs(d)**e, d) if d != 0.0 else 0.0
    return -(t**e) + s**e + tail


def cov_strict_general(H, weights: StrictWeights, s, t) -> float:
    """Mixture covariance Re sum_e gamma_e prod_j P(H_j, t_j, s_j, e_j).

    Evaluated from the sign-moment terms of the weights, P = (a + i e b)/2:
    a = t^{2H}+s^{2H}-|t-s|^{2H} and b = tan(pi H) times the skew bracket,
    or a = 2 min(t, s) and b = (2/pi) times the log bracket at H = 1/2.
    A single term is S = {} (the sheet), which needs no b.
    """
    H = validate_hurst(H)
    if weights.n != len(H):
        raise ValueError(f"weights are {weights.n}-dimensional, H is {len(H)}")
    terms = weights.sign_moment_terms
    s = _as_point(s, len(H))
    t = _as_point(t, len(H))
    a = [_a_bracket(h, tk, sk) for h, tk, sk in zip(H, t, s)]
    b = a if len(terms) == 1 else [
        2.0 / math.pi * _log_bracket(tk, sk) if h == 0.5
        else math.tan(math.pi * h) * _skew_bracket(h, tk, sk)
        for h, tk, sk in zip(H, t, s)]
    total = 0.0
    for coef, in_s in terms:
        for aj, bj, j_in_s in zip(a, b, in_s):
            coef *= bj if j_in_s else aj
        total += coef
    return total


def cov_mild_theta(h1: float, h2: float, theta: float, s, t) -> float:
    """Sheet covariance modulated by a separable mild-stationary correction.

    (1/4) prod_i (t^{2H}+s^{2H}-|t-s|^{2H}) times
    1 + (theta/4) prod_i (t_i^{2H}-s_i^{2H}) / max(s_i,t_i)^{2H}.
    """
    (h1, h2) = validate_hurst((h1, h2))
    _warn_theta(theta)
    s = _as_point(s, 2)
    t = _as_point(t, 2)
    base, corr = 0.25, 1.0
    for h, sk, tk in zip((h1, h2), s, t):
        m = max(sk, tk)**(2 * h)
        if m == 0.0:   # also where the power underflows: both brackets are 0
            return 0.0
        base *= _a_bracket(h, tk, sk)
        corr *= (tk**(2 * h) - sk**(2 * h)) / m
    return base * (1.0 + 0.25 * theta * corr)


def cov_fbs(H, s, t) -> float:
    """Fractional Brownian sheet: 2^{-N} prod_k (t^{2H}+s^{2H}-|t-s|^{2H})."""
    H = validate_hurst(H)
    s = _as_point(s, len(H))
    t = _as_point(t, len(H))
    out = 2.0 ** -len(H)
    for h, sk, tk in zip(H, s, t):
        out *= _sym_bracket(h, tk, sk)
    return out


def evaluator(spec):
    """The scalar covariance (s, t) -> float of a field specification."""
    canon = spec.canonical()
    if isinstance(canon, StrictGeneral):
        return lambda s, t: cov_strict_general(canon.H, canon.weights, s, t)
    return lambda s, t: cov_mild_theta(canon.h1, canon.h2, canon.theta, s, t)


# --------------------------------------------------------------------------
# Stationary covariances, densities and criteria
# --------------------------------------------------------------------------

def lamperti_inverse(C, H, s, t) -> float:
    """Self-similar kernel induced by a stationary covariance.

    prod_k (t_k s_k)^{H_k} C(log(t_k/s_k)) for strictly positive
    coordinates, zero if any coordinate of s or t lies on the boundary.
    """
    H = validate_hurst(H)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if len(s) != len(H) or len(t) != len(H):
        raise ValueError("point dimension does not match Hurst vector")
    if np.any(s < 0.0) or np.any(t < 0.0):
        raise ValueError("points must lie in the positive orthant")
    if np.any(s == 0.0) or np.any(t == 0.0):
        return 0.0
    pref = math.prod(float(tk * sk)**h for h, sk, tk in zip(H, s, t))
    return pref * C(np.log(t / s))


def _log1mexp(av: float) -> float:
    """log(1 - e^{-av}) for av > 0, accurate on both sides of av = log 2."""
    if av < math.log(2.0):
        return math.log(-math.expm1(-av))
    return math.log1p(-math.exp(-av))


def _c_fbs_factor(h: float, av: float) -> float:
    """cosh(h v) - 2^{2h-1} |sinh(v/2)|^{2h} at av = |v|, cancellation-free.

    Factoring out e^{h av}/2 leaves the bracket
    e^{-2 h av} + (1 - (1 - e^{-av})^{2h}), a sum of positive terms, while
    the direct difference loses all digits once av exceeds about 36.
    """
    if av == 0.0:
        return 1.0
    bracket = math.exp(-2.0 * h * av) - math.expm1(2.0 * h * _log1mexp(av))
    if bracket <= 0.0:
        return 0.0
    return math.exp(h * av + math.log(bracket) - math.log(2.0))


def c_fbs_stationary(H, v) -> float:
    """Stationary sheet covariance prod_i (cosh(H v) - 2^{2H-1}|sinh(v/2)|^{2H})."""
    H = validate_hurst(H)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if len(v) != len(H):
        raise ValueError("argument dimension does not match Hurst vector")
    out = 1.0
    for h, vk in zip(H, v):
        out *= _c_fbs_factor(h, abs(float(vk)))
    return out


def c_theta(h1: float, h2: float, theta: float, v) -> float:
    """Stationary covariance of the mild family:

    C_fbs(v) (1 + theta e^{-H1|v1|-H2|v2|} sinh(H1 v1) sinh(H2 v2)).
    """
    validate_hurst((h1, h2))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if len(v) != 2:
        raise ValueError("expected a two-dimensional argument")
    base = c_fbs_stationary((h1, h2), v)
    damp = math.exp(-h1 * abs(v[0]) - h2 * abs(v[1]))
    return base * (1.0 + theta * damp * math.sinh(h1 * v[0]) * math.sinh(h2 * v[1]))


def g_w(x: float) -> float:
    """Cauchy spectral density of the time-changed Brownian motion."""
    x = float(x)
    return 1.0 / (2.0 * math.pi * (0.25 + x * x))


def g_fbm(H: float, x: float) -> float:
    """Spectral density g_H(x) of the time-changed fractional Brownian motion.

    Evaluated in log space: the exponential growth of 1/|Gamma(H+ix)|^2 and
    the exponential decay of cosh(pi x)/(cosh^2(pi x) - cos^2(pi H)) cancel
    analytically, leaving the power-law tail ~ c_H |x|^{-1-2H} that a naive
    evaluation loses to overflow beyond |x| of about 200.
    """
    (H,) = validate_hurst(H)
    x = float(x)
    ax = abs(x)
    log_gamma2 = 2.0 * float(np.real(loggamma(complex(H, ax))))
    lc = log_cosh(math.pi * ax)
    cos_h = math.cos(math.pi * H)
    # log(cosh^2 - cos^2) = 2 log cosh + log1p(-(cos/cosh)^2)
    log_den = 2.0 * lc + math.log1p(-(cos_h * cos_h) * math.exp(-2.0 * lc))
    log_val = (math.log(2.0 * H / (H * H + x * x))
               + math.log(math.pi) + math.lgamma(2.0 * H) - log_gamma2
               + math.log(math.sin(math.pi * H)) + lc - log_den
               - math.log(2.0 * math.pi))
    return math.exp(log_val)


def g_product(H, x) -> float:
    """Product density prod_k g_{H_k}(x_k) for the stationary sheet covariance."""
    H = validate_hurst(H)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != len(H):
        raise ValueError("argument dimension does not match Hurst vector")
    return math.prod(g_fbm(h, xk) for h, xk in zip(H, x))


def log_cosh(x: float) -> float:
    """log(cosh(x)), accurate for all x without overflow."""
    ax = abs(x)
    # cosh(x) = e^|x| (1 + e^{-2|x|}) / 2
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def mild_criterion_residual(C, H, v) -> float:
    """Residual of the sign-symmetrization identity at v.

    sum_{eps in {-1,+1}^N} C(eps o v) - 2^N C_fbs(v); identically zero over
    v exactly when the inverse-Lamperti field of C has mild stationary
    rectangular increments.
    """
    H = validate_hurst(H)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if len(v) != len(H):
        raise ValueError("argument dimension does not match Hurst vector")
    acc = 0.0
    for eps in itertools.product((1.0, -1.0), repeat=len(H)):
        acc += C(np.asarray(eps) * v)
    return acc - 2.0**len(H) * c_fbs_stationary(H, v)


def density_criterion_residual(f, H, x) -> float:
    """Residual of the density-level mild-class identity at frequency x.

    sum_{eps in {-1,+1}^N} f(eps o x) - 2^N prod_k g_{H_k}(x_k).
    """
    H = validate_hurst(H)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != f.n or len(H) != f.n:
        raise ValueError("dimension mismatch between density, H, and x")
    acc = 0.0
    for eps in itertools.product((1.0, -1.0), repeat=f.n):
        acc += f(np.asarray(eps) * x)
    return acc - 2.0**f.n * g_product(H, x)
