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

The forward map of a kernel is its term table over the letters at Lamperti
lags, the third letter form of :mod:`rectfield.kernels`, whose terms
cancel at no lag.  A table is self-similar by construction, so the map
takes no numerical check.  ``c_fbs_stationary`` and ``c_theta`` are the
sheet's and the mild family's tables there.  They, ``lamperti_inverse``
and the criterion map lag (or point) arrays of shape (..., N) to shape
(...); a single lag gives a ``np.float64`` and a bare number is a
one-dimensional lag.  Lags and theta must be finite and points of
``lamperti_inverse`` finite and in the positive orthant; anything else
raises ``ValueError``.  A stationary covariance C is any callable with
the same contract, such as the one ``lamperti_forward`` returns, so the
criterion evaluates the 2^N sign flips of a whole lag grid in one call
of C.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .gammafn import validate_hurst
from .kernels import (FBS, CovKernel, _as_points, _lamperti_letters,
                      _mild_terms, _points, _sign_vectors, _sum_terms)

__all__ = [
    "lamperti_forward",
    "lamperti_inverse",
    "c_fbs_stationary",
    "c_theta",
    "mild_criterion_residual",
]


def lamperti_forward(kernel: CovKernel) -> Callable[..., np.ndarray]:
    """Stationary covariance C of the exponentially time-changed kernel:
    its term table at Lamperti lags."""
    return functools.partial(_stationary_terms, kernel.H, kernel.terms)


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


def _stationary_terms(H, terms, v) -> np.ndarray:
    """C(v) = sum_k c_k prod_j phi_kj(v_j) of a term table at lags (..., N),
    its letters at Lamperti lags (``kernels._lamperti_letters``)."""
    return _sum_terms(H, terms, (v,), _lamperti_letters, _points)[()]


def c_fbs_stationary(H, v) -> np.ndarray:
    """Stationary sheet covariance prod_i (cosh(H v) - 2^{2H-1}|sinh(v/2)|^{2H})."""
    return _stationary_terms(H, FBS(H).canonical().terms, v)


def c_theta(h1: float, h2: float, theta: float, v) -> np.ndarray:
    """Stationary covariance of the mild family:

    C_fbs(v) (1 + theta e^{-H1|v1|-H2|v2|} sinh(H1 v1) sinh(H2 v2)).
    """
    return _stationary_terms((h1, h2), _mild_terms(theta), v)


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
