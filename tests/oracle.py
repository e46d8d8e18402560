"""Scalar closed forms of the covariance kernels: the tests' reference.

These are the pointwise evaluators of the strict mixture and of the mild
family, written with ``math`` on one pair of points at a time.  The library
evaluates every covariance through its array forms
(``rectfield.kernels.cov_strict_general_array`` and
``cov_mild_theta_array``); the tests check those forms, and everything
built on them (``cov_matrix``, the increment algebra, the classifier, the
Monte Carlo analytic values), against the scalar code here.  Each bracket
is the one named in the ``rectfield.kernels`` module docstring.
"""

import math

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
