"""Closed-form covariance kernels for the self-similar field families.

Every kernel K(s, t) here describes a centered Gaussian field on the
positive orthant that is coordinate-wise self-similar with Hurst vector H:

    K(a o s, a o t) = (prod_k a_k^{2 H_k}) K(s, t),   a in (0, inf)^N,

vanishes whenever a coordinate of s or t is zero, and satisfies
K(t, t) = prod_k t_k^{2 H_k}.  The families differ in how much stationarity
their rectangular increments retain, recorded as ``claimed_class`` on the
kernel and cross-checked numerically by :mod:`rectfield.increments`.

The general strictly-stationary-increment family is a mixture over sign
vectors e in {-1,+1}^N with weights gamma_e (nonnegative, symmetric under
e -> -e, summing to one).  Its covariance is the real part of

    sum_e gamma_e  prod_j  P(H_j, t_j, s_j, e_j)

where the per-coordinate factor P is, away from H = 1/2,

    (1/2) [ (t^{2H} + s^{2H} - |t-s|^{2H})
            + i e tan(pi H) (-t^{2H} + s^{2H} + sgn(t-s)|t-s|^{2H}) ]

and, at H = 1/2,

    min(t, s) + (i e / pi) (t log t - s log s - (t-s) log|t-s|),

with the conventions 0 log 0 := 0 and sgn(0) := 0.  Writing P = (a + i e b)/2
and expanding the product, the covariance is evaluated in real arithmetic
through the sign moments m_S = sum_e gamma_e prod_{j in S} e_j:

    K = 2^{-N} sum_{even S} (-1)^{|S|/2} m_S prod_{j in S} b_j prod_{j not in S} a_j.

The odd moments vanish by the weight symmetry.  Uniform weights
gamma_e = 2^{-N} leave only S = {} and collapse the mixture to the fractional
Brownian sheet.  Every family is one of two canonical specifications: this
strict mixture (``StrictGeneral``) or the sheet with a separable mild
correction (``MildTheta``).

Each of the two evaluators (``cov_strict_general_array``,
``cov_mild_theta_array``) takes point arrays of shape (..., N) that
broadcast against each other and returns the covariances, shape (...).
They are the only code here that computes a covariance: a ``CovKernel``
carries one of them as its ``batch``, and the functions of one pair of
points (``cov_fbs``, ``cov_strict_general``, ``cov_mild_theta`` and the
2-D families) return ``float`` of an evaluator at that pair.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

__all__ = [
    "StationarityClass",
    "WeightValidationError",
    "StrictWeights",
    "validate_weights",
    "strict2d_weights",
    "FBS",
    "StrictGeneral",
    "Strict2D",
    "MildTheta",
    "YHalf",
    "ZHalf",
    "MovingPair",
    "FieldSpec",
    "CovKernel",
    "make_kernel",
    "cov_fbs",
    "cov_strict_general",
    "cov_strict_general_array",
    "cov_strict_2d",
    "cov_mild_theta",
    "cov_mild_theta_array",
    "cov_y_half",
    "cov_z_half",
]


class StationarityClass(enum.Enum):
    STRICT_WIDE = "strict_wide"
    MILD_ONLY = "mild_only"
    NONE = "none"


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


def _points(p, n) -> np.ndarray:
    """Finite float array of lags (..., n); a bare number is a 1-D lag."""
    pts = np.atleast_1d(np.asarray(p, dtype=float))
    if pts.shape[-1] != n:
        raise ValueError(f"points of shape {pts.shape} do not have dimension "
                         f"{n} on their last axis")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _as_points(p, n) -> np.ndarray:
    """``_points`` in the positive orthant: the one check of orthant points."""
    pts = _points(p, n)
    if (pts < 0.0).any():
        raise ValueError("points must be finite and in the positive orthant")
    return pts


# --------------------------------------------------------------------------
# Weights for the strictly-stationary mixture
# --------------------------------------------------------------------------

class WeightValidationError(ValueError):
    """Carries every violated weight constraint, one message per violation."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


def _sign_vectors(n):
    return list(itertools.product((1, -1), repeat=n))


def _weight_violations(w: dict, n: int, name: str, total_want: float) -> list:
    """Sign-vector coverage, nonnegativity, e -> -e symmetry and the total."""
    if set(w) != set(_sign_vectors(n)):
        return [f"need all {2**n} sign vectors of length {n}"]
    out = []
    for e, v in w.items():
        if not 0.0 <= v < math.inf:
            out.append(f"{name}{e} = {v:g} is negative or not finite")
        neg = tuple(-x for x in e)
        if abs(v - w[neg]) > 1e-12 * max(1.0, abs(v)):
            out.append(f"{name}{e} != {name}{neg} (symmetry)")
    total = sum(w.values())
    if abs(total - total_want) > 1e-10 * max(1.0, total_want):
        out.append(f"sum of {name}_e is {total!r}, expected {total_want!r}")
    return out


@dataclass(frozen=True)
class StrictWeights:
    """Normalized mixture weights gamma_e, one per sign vector e in {-1,+1}^N."""

    gamma_by_sign: Mapping[tuple, float]

    def __post_init__(self):
        gam = {tuple(int(x) for x in k): float(v)
               for k, v in self.gamma_by_sign.items()}
        if not gam:
            raise WeightValidationError(["no weights given"])
        violations = _weight_violations(gam, len(next(iter(gam))), "gamma", 1.0)
        if violations:
            raise WeightValidationError(violations)
        object.__setattr__(self, "gamma_by_sign", gam)

    @property
    def n(self) -> int:
        return len(next(iter(self.gamma_by_sign)))

    @classmethod
    @functools.lru_cache(maxsize=None)
    def uniform(cls, n: int) -> "StrictWeights":
        return cls({e: 2.0**-n for e in _sign_vectors(n)})

    def items(self):
        return self.gamma_by_sign.items()

    @functools.cached_property
    def sign_moment_terms(self) -> list:
        """(2^{-N} (-1)^{|S|/2} m_S, [j in S]) per even S with m_S != 0.

        An odd moment beyond what the per-pair symmetry tolerance allows
        would leave the covariance an imaginary part and raises.
        """
        n = self.n
        terms, odd = [], []
        for size in range(n + 1):
            for S in itertools.combinations(range(n), size):
                m = sum(g * math.prod(e[j] for j in S) for e, g in self.items())
                if size % 2 == 0 and m != 0.0:
                    terms.append((2.0**-n * (-1)**(size // 2) * m,
                                  tuple(j in S for j in range(n))))
                elif size % 2 and abs(m) > 2**(n - 1) * 1e-12:
                    odd.append(f"odd sign moment m{S} = {m:g} leaves the "
                               "covariance an imaginary part")
        if odd:
            raise WeightValidationError(odd)
        return terms


def _spectral_mass(H) -> float:
    """prod_j Gamma(1+2H_j) sin(pi H_j) / pi, the required raw-weight total."""
    return math.prod(math.gamma(1 + 2 * h) * math.sin(math.pi * h) / math.pi
                     for h in H)


def validate_weights(raw_K: Mapping, H) -> StrictWeights:
    """Check raw spectral weights K_e and return them normalized.

    Raw weights must be nonnegative, symmetric under e -> -e, and sum to
    prod_j Gamma(1+2H_j) sin(pi H_j)/pi (within 1e-10); the normalized
    weights gamma_e = K_e / total then sum to one.  All violated
    constraints are reported together.
    """
    H = validate_hurst(H)
    K = {tuple(int(x) for x in k): float(v) for k, v in raw_K.items()}
    mass = _spectral_mass(H)
    violations = _weight_violations(K, len(H), "K", mass)
    if violations:
        raise WeightValidationError(violations)
    return StrictWeights({e: v / mass for e, v in K.items()})


@functools.lru_cache(maxsize=256)
def strict2d_weights(gamma: float) -> StrictWeights:
    """Two-dimensional weights realizing coupling gamma = -sum_e gamma_e e1 e2."""
    if not -1.0 <= gamma <= 1.0:
        raise ValueError(f"coupling gamma must lie in [-1,1], got {gamma!r}")
    a = (1.0 - gamma) / 4.0   # e1 e2 = +1 pair
    b = (1.0 + gamma) / 4.0   # e1 e2 = -1 pair
    return StrictWeights({(1, 1): a, (-1, -1): a, (1, -1): b, (-1, 1): b})


# --------------------------------------------------------------------------
# The two evaluators, the strict mixture and the mild family, and the
# brackets of the module docstring that they share
# --------------------------------------------------------------------------

def _xlogx_array(x: np.ndarray) -> np.ndarray:
    """x log|x| elementwise with 0 log 0 := 0 (log is taken of 1 there)."""
    return x * np.log(np.where(x != 0.0, np.abs(x), 1.0))


def _brackets_array(h: float, t: np.ndarray, s: np.ndarray, need_b: bool):
    """The a and b brackets of one coordinate (b is None unless needed).

    a = t^{2H}+s^{2H}-|t-s|^{2H} and b = tan(pi H) times the skew bracket,
    or a = 2 min(t, s) and b = (2/pi) times the log bracket at H = 1/2.
    Each power is taken once and shared by both brackets; sgn(0) := 0 comes
    from ``np.sign``.
    """
    if h == 0.5:
        a = 2.0 * np.minimum(t, s)
        b = (2.0 / math.pi * (_xlogx_array(t) - _xlogx_array(s)
                              - _xlogx_array(t - s)) if need_b else None)
        return a, b
    e = 2.0 * h
    d = t - s
    te, se, de = t**e, s**e, np.abs(d)**e
    a = te + se - de
    b = math.tan(math.pi * h) * (-te + se + np.sign(d) * de) if need_b else None
    return a, b


def cov_strict_general_array(H, weights: StrictWeights, s, t) -> np.ndarray:
    """Mixture covariance Re sum_e gamma_e prod_j P(H_j, t_j, s_j, e_j).

    Over point arrays (..., N) -> (...), from the sign-moment terms of the
    weights, P = (a + i e b)/2; a single term is S = {} (the sheet), which
    needs no b.  Overflow and its NaNs are left to the caller, which checks
    finiteness; numpy is told not to warn about them.
    """
    H = validate_hurst(H)
    if weights.n != len(H):
        raise ValueError(f"weights are {weights.n}-dimensional, H is {len(H)}")
    terms = weights.sign_moment_terms
    s = _as_points(s, len(H))
    t = _as_points(t, len(H))
    with np.errstate(over="ignore", invalid="ignore"):
        ab = [_brackets_array(h, t[..., k], s[..., k], len(terms) > 1)
              for k, h in enumerate(H)]
        total = 0.0
        for coef, in_s in terms:
            for (aj, bj), j_in_s in zip(ab, in_s):
                coef = coef * (bj if j_in_s else aj)
            total = total + coef
    return total


def cov_mild_theta_array(h1: float, h2: float, theta: float, s, t) -> np.ndarray:
    """Sheet covariance modulated by a separable mild-stationary correction.

    (1/4) prod_i a_i (1 + (theta/4) prod_i (t_i^{2H}-s_i^{2H}) / max(s_i,t_i)^{2H})
    over point arrays (..., 2) -> (...).  Where the max power is 0 (or
    underflows) the ratio is taken as 0, and the base factor is 0 there.
    Silent on a theta outside [-1, 1]: that warns where theta enters
    (``MildTheta``, ``YHalf``, ``cov_mild_theta``, ``cov_y_half``).
    """
    (h1, h2) = validate_hurst((h1, h2))
    s = _as_points(s, 2)
    t = _as_points(t, 2)
    base, corr = 0.25, 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, h in enumerate((h1, h2)):
            sk, tk = s[..., k], t[..., k]
            e = 2.0 * h
            te, se = tk**e, sk**e
            a = (2.0 * np.minimum(tk, sk) if h == 0.5
                 else te + se - np.abs(tk - sk)**e)
            m = np.where(tk >= sk, te, se)   # max(s, t)^{2H}, the same power
            base = base * a
            corr = corr * ((te - se) / np.where(m > 0.0, m, 1.0))
        return base * (1.0 + 0.25 * theta * corr)


# --------------------------------------------------------------------------
# Covariance functions: one pair of points through an evaluator; a bare
# number is a 1-D point
# --------------------------------------------------------------------------

def cov_strict_general(H, weights: StrictWeights, s, t) -> float:
    """``cov_strict_general_array`` at one pair of points."""
    return float(cov_strict_general_array(H, weights, s, t))


def cov_mild_theta(h1: float, h2: float, theta: float, s, t) -> float:
    """``cov_mild_theta_array`` at one pair of points."""
    _warn_theta(theta)
    return float(cov_mild_theta_array(h1, h2, theta, s, t))


def cov_fbs(H, s, t) -> float:
    """Fractional Brownian sheet: 2^{-N} prod_k (t^{2H}+s^{2H}-|t-s|^{2H})."""
    H = validate_hurst(H)
    return float(cov_strict_general_array(H, StrictWeights.uniform(len(H)),
                                          s, t))


def cov_strict_2d(h1: float, h2: float, gamma: float, s, t) -> float:
    """Two-dimensional strict covariance (a1 a2 + gamma b1 b2) / 4."""
    return float(cov_strict_general_array((h1, h2), strict2d_weights(gamma),
                                          s, t))


def cov_y_half(theta: float, s, t) -> float:
    """Brownian-sheet covariance with the mild correction at H = (1/2, 1/2)."""
    _warn_theta(theta)
    return float(cov_mild_theta_array(0.5, 0.5, theta, s, t))


def cov_z_half(gamma: float, s, t) -> float:
    """Brownian-sheet covariance plus the log-bracket coupling at H = (1/2, 1/2)."""
    _warn_gamma(gamma)
    return float(cov_strict_general_array((0.5, 0.5), strict2d_weights(gamma),
                                          s, t))


def _warn_from_caller(message: str):
    """Warn at the nearest caller outside this module (and its dataclass
    ``__init__``s), where the value entered, whatever path carried it."""
    level, frame = 2, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        level, frame = level + 1, frame.f_back
    warnings.warn(message, stacklevel=level)


def _warn_theta(theta: float):
    if not -1.0 <= theta <= 1.0:
        _warn_from_caller(
            f"theta={theta:g} outside [-1,1]: positive semidefiniteness is not "
            "guaranteed, run the numerical eigenvalue check")


def _warn_gamma(gamma: float):
    if -1.0 <= gamma <= 0.0:
        _warn_from_caller(
            f"gamma={gamma:g} is outside (0,1], where dependence of disjoint "
            "increments is guaranteed positive")


# --------------------------------------------------------------------------
# Field specifications
# --------------------------------------------------------------------------

class _Family:
    """Metadata shared by the specifications; two-dimensional by default.

    ``canonical()`` names the equal ``StrictGeneral`` or ``MildTheta``
    specification, the only two that :func:`make_kernel` evaluates.
    """

    @property
    def hurst(self):
        return (self.h1, self.h2)

    @property
    def claimed_class(self):
        return StationarityClass.STRICT_WIDE

    def canonical(self):
        return self


@dataclass(frozen=True)
class FBS(_Family):
    """Fractional Brownian sheet with Hurst vector H."""

    H: tuple

    family = "fbs"

    def __post_init__(self):
        object.__setattr__(self, "H", validate_hurst(self.H))

    @property
    def hurst(self):
        return self.H

    def canonical(self):
        return StrictGeneral(self.H, StrictWeights.uniform(len(self.H)))


@dataclass(frozen=True)
class StrictGeneral(_Family):
    """General strictly-stationary-increment mixture with explicit weights."""

    H: tuple
    weights: StrictWeights

    family = "strict"

    def __post_init__(self):
        object.__setattr__(self, "H", validate_hurst(self.H))
        if self.weights.n != len(self.H):
            raise ValueError("weights dimension does not match Hurst vector")

    @property
    def hurst(self):
        return self.H


@dataclass(frozen=True)
class Strict2D(_Family):
    """Two-dimensional strict family parameterized by coupling gamma."""

    h1: float
    h2: float
    gamma: float

    family = "strict2d"

    def __post_init__(self):
        self.canonical()   # validates H and gamma

    def canonical(self):
        return StrictGeneral(self.hurst, strict2d_weights(self.gamma))


@dataclass(frozen=True)
class MildTheta(_Family):
    """Mild-stationary family with separable correction strength theta."""

    h1: float
    h2: float
    theta: float

    family = "mildtheta"

    def __post_init__(self):
        validate_hurst((self.h1, self.h2))
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta!r}")
        _warn_theta(self.theta)

    @property
    def claimed_class(self):
        if self.theta == 0.0:
            return StationarityClass.STRICT_WIDE
        return StationarityClass.MILD_ONLY


@dataclass(frozen=True)
class YHalf(_Family):
    """Mild family at H = (1/2, 1/2): ``MildTheta(1/2, 1/2, theta)``."""

    theta: float

    family = "yhalf"
    h1 = h2 = 0.5
    claimed_class = MildTheta.claimed_class

    def __post_init__(self):
        self.canonical()   # validates theta

    def canonical(self):
        return MildTheta(0.5, 0.5, self.theta)


@dataclass(frozen=True)
class ZHalf(_Family):
    """Strict family at H = (1/2, 1/2): ``Strict2D(1/2, 1/2, gamma)``."""

    gamma: float

    family = "zhalf"
    h1 = h2 = 0.5

    def __post_init__(self):
        self.canonical()   # validates gamma
        _warn_gamma(self.gamma)

    def canonical(self):
        return Strict2D(0.5, 0.5, self.gamma).canonical()


def moving_constraint_residual(h1, h2, d0, d1) -> float:
    """Residual of the moving-average unit-variance constraint on (d0, d1).

    d0^2 + 2 d0 d1 sin(pi H1) sin(pi H2) + d1^2 - 1 away from H = 1/2;
    at H1 = H2 = 1/2 the kernels are orthogonal and the constraint is
    d0^2 + d1^2 - 1.  Mixed vectors with one component at 1/2 are rejected.
    """
    validate_hurst((h1, h2))
    half = (h1 == 0.5, h2 == 0.5)
    if any(half) and not all(half):
        raise ValueError("the moving pair needs both Hurst components at 1/2 "
                         "or neither")
    if all(half):
        return d0 * d0 + d1 * d1 - 1.0
    return (d0 * d0 + 2.0 * d0 * d1 * math.sin(math.pi * h1)
            * math.sin(math.pi * h2) + d1 * d1 - 1.0)


@dataclass(frozen=True)
class MovingPair(_Family):
    """Two-sided moving-average pair (d0: causal part, d1: anticausal part).

    Its covariance is the closed form of ``Strict2D(h1, h2, gamma)`` with the
    coupling ``gamma`` below (the vector-fBm cross-covariance form of
    Lavancier, Philippe & Surgailis 2009).  The quadrature of the kernel
    inner products in :mod:`rectfield.movingavg` is its independent oracle.
    Requires both Hurst components away from 1/2, or both exactly 1/2.
    """

    h1: float
    h2: float
    d0: float
    d1: float

    family = "movingpair"

    def __post_init__(self):
        res = moving_constraint_residual(self.h1, self.h2, self.d0, self.d1)
        if not abs(res) <= 1e-12:
            raise ValueError(
                f"(d0, d1) violate the normalization constraint: residual {res:g}")

    @property
    def gamma(self) -> float:
        """2 d0 d1 cos(pi H1) cos(pi H2), or 2 d0 d1 at H = (1/2, 1/2).

        On the constraint curve it lies in [-1, 1]: with a = pi H1 and
        b = pi H2, |cos a cos b| <= 1 - sin a sin b, so
        |gamma| <= d0^2 + d1^2 + 2 d0 d1 sin a sin b = 1.
        """
        if self.h1 == 0.5:
            return 2.0 * self.d0 * self.d1
        return (2.0 * self.d0 * self.d1 * math.cos(math.pi * self.h1)
                * math.cos(math.pi * self.h2))

    def canonical(self):
        # the constraint holds to 1e-12, so gamma may pass +-1 by as much
        gamma = max(-1.0, min(1.0, self.gamma))
        return Strict2D(self.h1, self.h2, gamma).canonical()


FieldSpec = Union[FBS, StrictGeneral, Strict2D, MildTheta, YHalf, ZHalf, MovingPair]


# --------------------------------------------------------------------------
# Kernel objects
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CovKernel:
    """A covariance with its family metadata.

    ``batch(S, T)`` takes point arrays of shape (..., N) that broadcast
    against each other and returns the covariances, shape (...).  Called
    on two points (a bare number is a 1-D point), the kernel returns
    ``float(batch(s, t))``.  ``make_kernel`` passes one of the two array
    evaluators.
    """

    spec: FieldSpec
    claimed_class: StationarityClass
    batch: Callable[..., np.ndarray]

    def __call__(self, s, t) -> float:
        return float(self.batch(*np.atleast_1d(s, t)))

    @property
    def hurst(self):
        return self.spec.hurst

    @property
    def n(self) -> int:
        return len(self.spec.hurst)


def make_kernel(spec: FieldSpec) -> CovKernel:
    """Build the evaluable covariance kernel for a field specification."""
    if not isinstance(spec, _Family):
        raise TypeError(f"unknown field specification {type(spec).__name__}")
    canon = spec.canonical()
    if isinstance(canon, StrictGeneral):
        canon.weights.sign_moment_terms   # computed and checked once, here
        batch = lambda s, t: cov_strict_general_array(canon.H, canon.weights, s, t)
    else:
        batch = lambda s, t: cov_mild_theta_array(canon.h1, canon.h2,
                                                  canon.theta, s, t)
    return CovKernel(spec=spec, claimed_class=spec.claimed_class, batch=batch)
