"""Scalar closed forms of the kernels, densities and criteria: the tests' reference.

These are the pointwise evaluators of the strict mixture and of the mild
family, written with ``math`` on one pair of points at a time and each in
its own form, the mild one without letter tables.  The library evaluates
every covariance through its one array evaluator
(``rectfield.kernels.cov_terms_array``) over a spec's term table; the
tests check it, and everything built on it (``cov_matrix``, the increment
algebra, the classifier, the Monte Carlo analytic values), against the
scalar code here.  Each bracket is the one named in the
``rectfield.kernels`` module docstring.

The second half holds the same for ``rectfield.lamperti`` and
``rectfield.spectral``: |Gamma(z)| and the spectral constant c1, the
stationary covariances, the inverse Lamperti transform and the spectral
densities at one lag or frequency at a time, and the two sign-flip
criteria as a loop over the flips.  The last parts give the H = 1/2
closed forms of the two quadrature identities, draw the Monte Carlo
increment probes one probe at a time and write a point's CSV cell one
coordinate at a time.
"""

import itertools
import math

import numpy as np
from scipy.special import loggamma

from rectfield.gammafn import _float_tuple, validate_hurst
from rectfield.kernels import SEAM_DELTA, StrictGeneral, StrictWeights, _warn_theta


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


def _seam_brackets(delta: float, t: float, s: float) -> tuple:
    """(a, b) at H = 1/2 + delta with x^{2H} = x + x E(x),
    E(x) = expm1(2 delta log x): a = 2 min(t, s) + t E(t) + s E(s) - |d| E(|d|)
    and b = -(s E(s) - t E(t) + d E(|d|)) / tan(pi delta), d = t - s."""
    def expm1_power(x):
        return math.expm1(2.0 * delta * math.log(abs(x))) if x != 0.0 else 0.0

    d = t - s
    te, se, de = t * expm1_power(t), s * expm1_power(s), expm1_power(d)
    return (2.0 * min(t, s) + (te + se - abs(d) * de),
            -(se - te + d * de) / math.tan(math.pi * delta))


def _a_bracket(h: float, t: float, s: float) -> float:
    """The symmetric bracket, in its exact form 2 min(t, s) at H = 1/2 and
    its seam form within ``SEAM_DELTA`` of it."""
    if h == 0.5:
        return 2.0 * min(t, s)
    if abs(h - 0.5) < SEAM_DELTA:
        return _seam_brackets(h - 0.5, t, s)[0]
    return _sym_bracket(h, t, s)


def _b_bracket(h: float, t: float, s: float) -> float:
    """The b bracket: (2/pi) log bracket at H = 1/2, the seam form within
    ``SEAM_DELTA`` of it, tan(pi H) times the skew bracket elsewhere."""
    if h == 0.5:
        return 2.0 / math.pi * _log_bracket(t, s)
    if abs(h - 0.5) < SEAM_DELTA:
        return _seam_brackets(h - 0.5, t, s)[1]
    return math.tan(math.pi * h) * _skew_bracket(h, t, s)


def _skew_bracket(h: float, t: float, s: float) -> float:
    """-t^{2H} + s^{2H} + sgn(t-s)|t-s|^{2H} with sgn(0) := 0."""
    e = 2.0 * h
    d = t - s
    tail = math.copysign(abs(d)**e, d) if d != 0.0 else 0.0
    return -(t**e) + s**e + tail


def cov_strict_general(H, weights: StrictWeights, s, t) -> float:
    """Mixture covariance Re sum_e gamma_e prod_j P(H_j, t_j, s_j, e_j).

    Evaluated from the sign-moment terms of the weights, P = (a + i e b)/2,
    each a row of letters "a" and "b": a = t^{2H}+s^{2H}-|t-s|^{2H} and
    b = tan(pi H) times the skew bracket (``_b_bracket``), or a = 2 min(t, s)
    and b = (2/pi) times the log bracket at H = 1/2.  A single term is
    S = {} (the sheet), which needs no b.
    """
    H = validate_hurst(H)
    if weights.n != len(H):
        raise ValueError(f"weights are {weights.n}-dimensional, H is {len(H)}")
    terms = weights.sign_moment_terms
    s = _as_point(s, len(H))
    t = _as_point(t, len(H))
    a = [_a_bracket(h, tk, sk) for h, tk, sk in zip(H, t, s)]
    b = a if len(terms) == 1 else [_b_bracket(h, tk, sk)
                                   for h, tk, sk in zip(H, t, s)]
    total = 0.0
    for coef, row in terms:
        for aj, bj, letter in zip(a, b, row):
            coef *= bj if letter == "b" else aj
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

# |Gamma(z)| and c1(H), which the package no longer calls: log-gamma enters
# g_H directly, and c1^2 is the tail constant of g_H
_LOG_OVERFLOW = math.log(np.finfo(float).max)   # exp() overflows above this


class GammaPoleError(ValueError):
    """Gamma evaluated at a pole (zero or a negative integer)."""


def abs_gamma(z) -> float:
    """|Gamma(z)| for complex z, as exp(Re log Gamma(z)), so it stays finite
    where Gamma itself underflows for large |Im z|.  A pole raises
    ``GammaPoleError`` and a result beyond the double range
    ``OverflowError``."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"abs_gamma requires finite components, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise GammaPoleError(f"Gamma pole at z = {z.real:g}")
    log_mag = float(np.real(loggamma(z)))
    if log_mag > _LOG_OVERFLOW:
        raise OverflowError(f"|Gamma({z})| overflows double precision")
    return math.exp(log_mag)


def c1(H: float) -> float:
    """Spectral normalization sqrt(H Gamma(2H) sin(pi H) / pi), H in (0,1);
    sin(pi H) is taken at min(H, 1 - H), as in ``g_fbm``."""
    (H,) = validate_hurst((H,))
    s = math.sin(math.pi * min(H, 1.0 - H))
    return math.sqrt(H * math.gamma(2 * H) * s / math.pi)


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
    the exponential decay of cosh(pi x)/(sinh^2(pi x) + sin^2(pi H)) cancel
    analytically, leaving the power-law tail ~ c_H |x|^{-1-2H} that a naive
    evaluation loses to overflow beyond |x| of about 200.  With y = pi |x|
    and t = e^{-2y}, that factor is 2 e^{-y} (1 + t) / ((1 - t)^2 +
    4 sin^2(pi H) t), whose terms neither overflow nor cancel as H nears 0
    or 1; sin(pi H) is taken at min(H, 1 - H), where pi H is exact enough.
    """
    (H,) = validate_hurst(H)
    x = float(x)
    ax = abs(x)
    neg_log_gamma2 = -2.0 * float(np.real(loggamma(complex(H, ax))))
    s = math.sin(math.pi * min(H, 1.0 - H))
    y = math.pi * ax
    t = math.exp(-2.0 * y)
    log_ratio = (math.log(2.0) + math.log1p(t)
                 - math.log(math.expm1(-2.0 * y) ** 2 + 4.0 * s * s * t))
    log_val = (math.log(H * s) + math.lgamma(2.0 * H) - math.log(H * H + x * x)
               + log_ratio + (neg_log_gamma2 - y))
    return math.exp(log_val)


def g_product(H, x) -> float:
    """Product density prod_k g_{H_k}(x_k) for the stationary sheet covariance."""
    H = validate_hurst(H)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(x) != len(H):
        raise ValueError("argument dimension does not match Hurst vector")
    return math.prod(g_fbm(h, xk) for h, xk in zip(H, x))


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


# --------------------------------------------------------------------------
# Monte Carlo probes, one probe at a time
# --------------------------------------------------------------------------

def mc_estimates(spec, plan, seed: int, n_samples: int) -> list:
    """The ``estimate`` column of ``mc_increment_stationarity``, per probe.

    Pair p and shift k draw once, from stream p S + k, at the sorted
    distinct corners of both boxes that have no zero coordinate; a corner
    with a zero coordinate reads 0.  Each increment is the sum of the
    corner values times the corner signs, added in ``corner_expansion``
    order; the var and cross estimates of a probe share its draw.  Returned in row order: a
    pair's var rows over the shifts, then its cross rows.
    """
    from rectfield.increments import Rectangle, corner_expansion
    from rectfield.kernels import make_kernel
    from rectfield.simulate import Grid, cholesky_sample, cov_matrix

    kernel = make_kernel(spec)
    zero = (0.0,) * len(plan.shifts[0])
    out = []
    for p, (u1, u2) in enumerate(plan.u_pairs):
        est = {"var": [], "cross": []}
        for k, h in enumerate(plan.shifts):
            boxes = [corner_expansion(Rectangle(zero, u).shifted(h))
                     for u in (u1, u2)]
            live = sorted({pt for box in boxes for pt, _ in box
                           if min(pt) > 0.0})
            values = np.zeros((n_samples, len(live) + 1))   # last column: 0
            if live:
                values[:, :-1], _ = cholesky_sample(
                    cov_matrix(kernel, Grid(np.array(live))), seed, n_samples,
                    stream=p * len(plan.shifts) + k)
            inc = np.column_stack([   # each summed in corner order
                sum(sg * values[:, live.index(pt) if pt in live else -1]
                    for pt, sg in box) for box in boxes])
            var, cross = (inc[:, 0] @ inc / n_samples).tolist()
            est["var"].append(var)
            est["cross"].append(cross)
        out += est["var"] + est["cross"]
    return out


# --------------------------------------------------------------------------
# The quadrature identities at H = 1/2
# --------------------------------------------------------------------------

def increment_half_closed(s: float, t: float) -> complex:
    """int_0^inf (e^{ity}-1)(e^{-isy}-1)/y^2 dy in closed form."""
    def xlogx(x):
        return x * math.log(abs(x)) if x != 0.0 else 0.0

    return complex(math.pi / 2 * (abs(t) + abs(s) - abs(t - s)),
                   xlogx(t) - xlogx(s) - xlogx(t - s))


def ma_transform_half_closed(eps: int, t: float, x: float) -> complex:
    """int_0^inf (e^{i(t-x) eps y} - e^{-i x eps y})/(i eps y) dy in closed
    form, for x off {0, t}: pi times the H = 1/2 kernel
    1{x < t} - 1{x < 0}, plus i eps log(|t-x|/|x|)."""
    return complex(math.pi * ((x < t) - (x < 0.0)),
                   eps * (math.log(abs(t - x)) - math.log(abs(x))))


# --------------------------------------------------------------------------
# CSV cells, one value at a time
# --------------------------------------------------------------------------

def point_cell(point) -> str:
    """A point's CSV cell, ``[a b]``, each coordinate written on its own
    with 17 significant digits (so it reads back as the same double)."""
    return "[" + " ".join(f"{float(v):.17g}" for v in point) + "]"
