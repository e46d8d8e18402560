"""Lamperti transform between self-similar kernels and stationary covariances.

A self-similar field X on the positive orthant and a stationary field Z on
R^N are in bijection through the exponential time change
Z(v) = exp(-sum H_k v_k) X(e^{v_1}, ..., e^{v_N}).  At the covariance level:

    forward:  C(v) = K((e^{-v_1/2}, ...), (e^{v_1/2}, ...))
    inverse:  K(s, t) = prod_k (t_k s_k)^{H_k} C(log t_1/s_1, ..., log t_N/s_N)

with K = 0 on the boundary of the orthant.  The stationary covariance of
the fractional Brownian sheet is the product

    C_fbs(v) = prod_i ( cosh(H_i v_i) - 2^{2 H_i - 1} |sinh(v_i/2)|^{2 H_i} )

and a self-similar field has mild stationary rectangular increments exactly
when its stationary covariance C satisfies the sign-symmetrization identity

    sum over eps in {-1,+1}^N of C(eps o v)  =  2^N C_fbs(v)   for all v,

whose residual is exposed here for numerical verification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import CovKernel, validate_hurst

__all__ = [
    "StationaryCov",
    "SelfSimilarityError",
    "self_similarity_residual",
    "lamperti_forward",
    "lamperti_inverse",
    "c_fbs_stationary",
    "c_theta",
    "mild_criterion_residual",
]


@dataclass(frozen=True)
class StationaryCov:
    """A stationary covariance function v -> C(v) on R^N."""

    n: int
    evaluate: Callable[..., float]

    def __call__(self, v) -> float:
        return self.evaluate(v)


class SelfSimilarityError(ValueError):
    """Kernel failed the numerical self-similarity check for its Hurst vector."""


def self_similarity_residual(kernel: CovKernel, n_trials: int = 10,
                             seed: int = 7041) -> float:
    """Max relative error of K(a o s, a o t) = prod a^{2H} K(s, t) over random triples."""
    H = np.asarray(kernel.hurst)
    # trial by trial, s, t and a: the draws of one trial are consecutive
    s, t, a = np.random.default_rng(seed).uniform(
        0.2, 2.0, (n_trials, 3, len(H))).transpose(1, 0, 2)
    lhs = kernel.batch(a * s, a * t)
    rhs = np.prod(a ** (2 * H), axis=-1) * kernel.batch(s, t)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-12),
                        initial=0.0))


def lamperti_forward(kernel: CovKernel, check: bool = True,
                     check_tol: float = 1e-10) -> StationaryCov:
    """Stationary covariance of the exponentially time-changed kernel.

    Verifies the kernel's self-similarity numerically before trusting the
    Hurst vector attached to it (disable with ``check=False``).
    """
    if check:
        resid = self_similarity_residual(kernel)
        if not resid <= check_tol:   # a NaN residual fails too
            raise SelfSimilarityError(
                f"self-similarity residual {resid:.3e} exceeds {check_tol:.1e}")

    def evaluate(v):
        v = np.atleast_1d(np.asarray(v, dtype=float))
        lo = np.exp(-v / 2.0)
        hi = np.exp(v / 2.0)
        return kernel(lo, hi)

    return StationaryCov(n=kernel.n, evaluate=evaluate)


def lamperti_inverse(C: StationaryCov, H, s, t) -> float:
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
    return pref * C.evaluate(np.log(t / s))


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
