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

``c_fbs_stationary``, ``c_theta``, ``lamperti_inverse`` and the criterion
map lag (or point) arrays of shape (..., N) to shape (...); a single lag
gives a ``np.float64`` and a bare number is a one-dimensional lag.  Lags
must be finite and points of ``lamperti_inverse`` finite and in the
positive orthant; anything else raises ``ValueError``.  A stationary
covariance C is any callable with the same contract, such as the one
``lamperti_forward`` returns, so the criterion evaluates the 2^N sign flips
of a whole lag grid in one call of C.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .kernels import (CovKernel, _as_points, _points, _sign_vectors,
                      validate_hurst)

__all__ = [
    "SelfSimilarityError",
    "self_similarity_residual",
    "lamperti_forward",
    "lamperti_inverse",
    "c_fbs_stationary",
    "c_theta",
    "mild_criterion_residual",
]

SELF_SIMILARITY_TRIALS = 10
SELF_SIMILARITY_SEED = 7041
SELF_SIMILARITY_TOL = 1e-10


class SelfSimilarityError(ValueError):
    """Kernel failed the numerical self-similarity check for its Hurst vector."""


def self_similarity_residual(kernel: CovKernel) -> float:
    """Max relative error of K(a o s, a o t) = prod a^{2H} K(s, t) over random triples."""
    H = np.asarray(kernel.hurst)
    # trial by trial, s, t and a: the draws of one trial are consecutive
    s, t, a = np.random.default_rng(SELF_SIMILARITY_SEED).uniform(
        0.2, 2.0, (SELF_SIMILARITY_TRIALS, 3, len(H))).transpose(1, 0, 2)
    lhs = kernel.batch(a * s, a * t)
    rhs = np.prod(a ** (2 * H), axis=-1) * kernel.batch(s, t)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-12),
                        initial=0.0))


def lamperti_forward(kernel: CovKernel) -> Callable[..., np.ndarray]:
    """Stationary covariance C of the exponentially time-changed kernel.

    Verifies the kernel's self-similarity numerically, to
    ``SELF_SIMILARITY_TOL``, before trusting the Hurst vector attached to it.
    """
    resid = self_similarity_residual(kernel)
    if not resid <= SELF_SIMILARITY_TOL:   # a NaN residual fails too
        raise SelfSimilarityError(f"self-similarity residual {resid:.3e} "
                                  f"exceeds {SELF_SIMILARITY_TOL:.1e}")

    def evaluate(v):
        v = np.asarray(v, dtype=float)
        return kernel.batch(np.exp(-v / 2.0), np.exp(v / 2.0))

    return evaluate


def lamperti_inverse(C: Callable[..., np.ndarray], H, s, t) -> np.ndarray:
    """Self-similar kernel induced by a stationary covariance.

    prod_k (t_k s_k)^{H_k} C(log(t_k/s_k)) for strictly positive
    coordinates, zero where any coordinate of s or t lies on the boundary;
    over point arrays (..., N) that broadcast against each other.
    """
    H = validate_hurst(H)
    s = _as_points(s, len(H))
    t = _as_points(t, len(H))
    # boundary points are evaluated at s = t = 1 and then set to zero
    edge = ((s == 0.0) | (t == 0.0)).any(axis=-1, keepdims=True)
    s, t = np.where(edge, 1.0, s), np.where(edge, 1.0, t)
    pref = np.prod((t * s) ** np.asarray(H), axis=-1)
    return np.where(edge[..., 0], 0.0, pref * C(np.log(t / s)))[()]


def _c_fbs_factor(h, av):
    """cosh(h v) - 2^{2h-1} |sinh(v/2)|^{2h} at av = |v|, cancellation-free.

    Factoring out e^{h av}/2 leaves the bracket
    e^{-2 h av} + (1 - (1 - e^{-av})^{2h}), a sum of positive terms, while
    the direct difference loses all digits once av exceeds about 36.
    log(1 - e^{-av}) is taken on the side of av = log 2 where it is
    accurate.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        log1mexp = np.where(av < math.log(2.0), np.log(-np.expm1(-av)),
                            np.log1p(-np.exp(-av)))
        bracket = np.exp(-2.0 * h * av) - np.expm1(2.0 * h * log1mexp)
        out = np.exp(h * av + np.log(bracket) - math.log(2.0))
    return np.where(av == 0.0, 1.0, np.where(bracket <= 0.0, 0.0, out))


def c_fbs_stationary(H, v) -> np.ndarray:
    """Stationary sheet covariance prod_i (cosh(H v) - 2^{2H-1}|sinh(v/2)|^{2H})."""
    H = validate_hurst(H)
    v = _points(v, len(H))
    return np.prod(_c_fbs_factor(np.asarray(H), np.abs(v)), axis=-1)


def c_theta(h1: float, h2: float, theta: float, v) -> np.ndarray:
    """Stationary covariance of the mild family:

    C_fbs(v) (1 + theta e^{-H1|v1|-H2|v2|} sinh(H1 v1) sinh(H2 v2)).
    """
    validate_hurst((h1, h2))
    v = _points(v, 2)
    v1, v2 = v[..., 0], v[..., 1]
    base = c_fbs_stationary((h1, h2), v)
    damp = np.exp(-h1 * np.abs(v1) - h2 * np.abs(v2))
    return base * (1.0 + theta * damp * np.sinh(h1 * v1) * np.sinh(h2 * v2))


def mild_criterion_residual(C, H, v) -> np.ndarray:
    """Residual of the sign-symmetrization identity at the lags v (..., N).

    sum_{eps in {-1,+1}^N} C(eps o v) - 2^N C_fbs(v); identically zero over
    v exactly when the inverse-Lamperti field of C has mild stationary
    rectangular increments.  C is called once, on the flipped lags
    (..., 2^N, N).
    """
    H = validate_hurst(H)
    v = _points(v, len(H))
    flips = np.asarray(_sign_vectors(len(H)), dtype=float)
    return (C(flips * v[..., None, :]).sum(axis=-1)
            - 2.0**len(H) * c_fbs_stationary(H, v))
