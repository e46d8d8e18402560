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

with the conventions 0 log 0 := 0 and sgn(0) := 0.

Writing P = (a + i e b)/2 and expanding the product, the covariance is
evaluated in real arithmetic through the sign moments
m_S = sum_e gamma_e prod_{j in S} e_j:

    K = 2^{-N} sum_{even S} (-1)^{|S|/2} m_S prod_{j in S} b_j prod_{j not in S} a_j.

The odd moments vanish by the weight symmetry.  Uniform weights
gamma_e = 2^{-N} leave only S = {} and collapse the mixture to the fractional
Brownian sheet.  The mild family modulates the two-dimensional sheet by a
separable correction,

    K = (1/4) a_1 a_2 + (theta/16) (a rho)_1 (a rho)_2,
    rho = (t^{2H} - s^{2H}) / max(s, t)^{2H}   (rho := 0 where that power is 0).

Both are sums of separable terms c_k prod_j phi_kj(t_j, s_j) over three
letters: a, b and a rho.  A term table ((c_1, (phi_11, ..., phi_1N)), ...)
names each letter "a", "b" or "arho".  Every family is one of two canonical
specifications, the strict mixture (``StrictGeneral``: b on S, a elsewhere)
or the mild family (``MildTheta``), and ``terms`` of either is its table.

``cov_terms_array`` evaluates a table at points and
``increment_cov_terms_array`` over pairs of rectangles; both take point
arrays (..., N) that broadcast against each other and return shape (...).
One loop (``_term_sum``) multiplies the letters into terms and adds the
terms, for these, for Lamperti lags and for each row block of a
covariance matrix (``simulate.cov_matrix``), so every route has its bits.
The fields vanish on the axes, so K(s, t) is the covariance of the
increments over [0, s] and [0, t], and a and b are one rule over the lags
d_k between the ends of two intervals, signed sigma_k (``_lag_letters``):

    a = -sum sigma_k |d_k|^{2H},   b = tan(pi H) sum sigma_k sgn(d_k)|d_k|^{2H}.

At points the lags are (t, -s, t - s); over two boxes they are the four
lags between their corners, whose size is that of the boxes, not of their
anchors, so a far anchor costs no digits.  Within ``SEAM_DELTA`` of
H = 1/2, where tan(pi H) diverges and b's sum cancels, the rule expands
|d|^{2H} = |d| + |d| expm1((2H-1) log|d|) about its H = 1/2 form, so the
covariance stays exact across the seam.  a rho has no lag form and is
taken at its four corners per coordinate, so a kernel claims mild-only
stationarity exactly when its table has an a rho letter.

At a Lamperti lag v the letters are those at s = e^{-v/2}, t = e^{v/2}
(``_lamperti_letters``): t s = 1, so their table is the stationary
covariance C(v) of :mod:`rectfield.lamperti`.  With L = log(1 - e^{-|v|}),
E = e^{-H|v|} and T = e^{H|v|} expm1(2HL) <= 0, they are a = E - T,
a rho = -a sgn(v) expm1(-2H|v|) and b = tan(pi H) sgn(v) (E + T), where,
with delta = H - 1/2, E + T = -2 e^{-|v|/2} sinh(delta |v|)
+ 2 sinh(|v|/2) e^{delta |v|} expm1(2 delta L) is two terms of one sign
at every H: b needs no seam, and at H = 1/2 it is
(2/pi) sgn(v) (|v| e^{-|v|/2} - 2 sinh(|v|/2) L).  ``make_kernel``
builds a ``CovKernel`` as its spec's table, whose ``batch`` is
``cov_terms_array``, and the functions of one pair of points (``cov_fbs``,
``cov_strict_general``, ``cov_mild_theta``) return ``float`` of it there.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .gammafn import _sin_pi, validate_hurst

__all__ = [
    "StationarityClass",
    "NonFiniteError",
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
    "cov_terms_array",
    "increment_cov_terms_array",
    "cov_fbs",
    "cov_strict_general",
    "cov_mild_theta",
]


class StationarityClass(enum.Enum):
    STRICT_WIDE = "strict_wide"
    MILD_ONLY = "mild_only"
    NONE = "none"


def _points(p, n) -> np.ndarray:
    """Finite float array of lags (..., n); a bare number is a 1-D lag."""
    pts = np.atleast_1d(np.asarray(p, dtype=float))
    if pts.shape[-1] != n:
        raise ValueError(f"points of shape {pts.shape} do not have dimension "
                         f"{n} on their last axis")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _one_point(pts: np.ndarray) -> np.ndarray:
    """``pts`` from ``_points`` if it is one point, else ValueError."""
    if pts.ndim != 1:
        raise ValueError(f"expected one point, got points of shape "
                         f"{pts.shape}")
    return pts


def _as_points(p, n) -> np.ndarray:
    """``_points`` in the positive orthant: the one check of orthant points."""
    pts = _points(p, n)
    if (pts < 0.0).any():
        raise ValueError("points must be finite and in the positive orthant")
    return pts


def _unique(a: np.ndarray):
    """``np.unique(a, axis=0, return_inverse=True)`` by one stable sort.

    For an array (n,) or (n, m): its distinct entries or rows in
    lexicographic order (first column first), and the index of each of its
    n elements among them.  np.unique loads ``numpy.ma`` when it is asked
    for the distinct values alone.
    """
    rows = a[:, None] if a.ndim == 1 else a
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return a[order[new]], inverse


class NonFiniteError(ValueError):
    """A covariance evaluated to inf or NaN at finite points."""


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


def _sign_key(key) -> tuple:
    """A weight table's key as a sign vector of ints; each entry must be
    +1 or -1, which ``int`` alone would not check (-1.7 -> -1)."""
    if not all(x in (1, -1) for x in key):
        raise WeightValidationError(
            [f"sign vector {key!r} has an entry other than +1 or -1"])
    return tuple(int(x) for x in key)


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
        gam = {_sign_key(k): float(v) for k, v in self.gamma_by_sign.items()}
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
    def sign_moment_terms(self) -> tuple:
        """The term table: (2^{-N} (-1)^{|S|/2} m_S, row) per even S with
        m_S != 0, the row's letter "b" on S and "a" elsewhere.

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
                                  tuple("b" if j in S else "a"
                                        for j in range(n))))
                elif size % 2 and abs(m) > 2**(n - 1) * 1e-12:
                    odd.append(f"odd sign moment m{S} = {m:g} leaves the "
                               "covariance an imaginary part")
        if odd:
            raise WeightValidationError(odd)
        return tuple(terms)


def _spectral_mass(H) -> float:
    """prod_j Gamma(1+2H_j) sin(pi H_j) / pi, the required raw-weight total."""
    return math.prod(math.gamma(1 + 2 * h) * _sin_pi(h) / math.pi for h in H)


def validate_weights(raw_K: Mapping, H) -> StrictWeights:
    """Check raw spectral weights K_e and return them normalized.

    Raw weights must be nonnegative, symmetric under e -> -e, and sum to
    prod_j Gamma(1+2H_j) sin(pi H_j)/pi (within 1e-10); the normalized
    weights gamma_e = K_e / total then sum to one.  All violated
    constraints are reported together.
    """
    H = validate_hurst(H)
    K = {_sign_key(k): float(v) for k, v in raw_K.items()}
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
# The evaluator: a term table over the letters a, b and a rho
# --------------------------------------------------------------------------

def _xlogx_array(x: np.ndarray) -> np.ndarray:
    """x log|x| elementwise with 0 log 0 := 0 (log is taken of 1 there)."""
    return x * np.log(np.where(x != 0.0, np.abs(x), 1.0))


# below this |H - 1/2| a and b are taken in their seam form; every H with
# |H - 1/2| >= 0.1 keeps the plain form's bits
SEAM_DELTA = 0.05


def _expm1_power(delta: float, x: np.ndarray) -> np.ndarray:
    """E(x) = expm1(2 delta log|x|), so that |x|^{1 + 2 delta} = |x| + |x| E(x);
    0 E(0) := 0 (log is taken of 1 there)."""
    return np.expm1(2.0 * delta * np.log(np.where(x != 0.0, np.abs(x), 1.0)))


def _signed_sum(signs, xs):
    """sum_k signs_k xs_k for signs +-1, left to right."""
    total = xs[0] if signs[0] > 0 else -xs[0]
    for sign, x in zip(signs[1:], xs[1:]):
        total = total + x if sign > 0 else total - x
    return total


def _lag_letters(h: float, lags, signs, overlap, need_b: bool):
    """a = -sum sigma_k |d_k|^{2H} and b = tan(pi H) sum sigma_k sgn(d_k)
    |d_k|^{2H} of one coordinate, over its lags d_k with signs sigma_k = +-1.

    ``overlap`` is the length of the two intervals' overlap, which the
    linear parts sum to: -sum sigma_k |d_k| = 2 overlap, sum sigma_k d_k = 0.
    Within ``SEAM_DELTA`` of 1/2, with delta = H - 1/2 (exact there),
    E = ``_expm1_power`` and tan(pi H) = -1/tan(pi delta),

        a = 2 overlap - sum sigma_k |d_k| E(|d_k|),
        b = -sum sigma_k d_k E(|d_k|) / tan(pi delta),

    whose E terms are O(delta) and cancel nothing; at H = 1/2, a = 2 overlap
    and b = -(2/pi) sum sigma_k d_k log|d_k|.  Every sum runs left to right,
    a's over -sigma_k rather than negated after, so that at points a keeps
    the bits (and the +0) of t^{2H} + s^{2H} - |t-s|^{2H}.  Returns (a,
    b or None unless ``need_b``, the powers |d_k|^{2H} or None in the seam
    form, which takes none).
    """
    neg, delta = [-x for x in signs], h - 0.5
    if abs(delta) >= SEAM_DELTA:
        p = [np.abs(d) ** (2.0 * h) for d in lags]
        # sgn(d)|d|^{2H} is copysign(|d|^{2H}, d), as |0|^{2H} = 0
        b = (math.tan(math.pi * h)
             * _signed_sum(signs, [np.copysign(pk, d)
                                   for d, pk in zip(lags, p)])
             if need_b else None)
        return _signed_sum(neg, p), b, p
    if delta == 0.0:
        b = (2.0 / math.pi * _signed_sum(neg, [_xlogx_array(d) for d in lags])
             if need_b else None)
        return 2.0 * overlap, b, None
    e = [_expm1_power(delta, d) for d in lags]
    a = 2.0 * overlap + _signed_sum(neg, [np.abs(d) * ek
                                          for d, ek in zip(lags, e)])
    b = (-_signed_sum(signs, [d * ek for d, ek in zip(lags, e)])
         / math.tan(math.pi * delta) if need_b else None)
    return a, b, None


def _letters_array(h: float, t: np.ndarray, s: np.ndarray, names) -> dict:
    """The letters of one coordinate that ``names`` lists, by name.

    a and b are ``_lag_letters`` over the lags (t, -s, t - s), signed
    (-1, -1, +1), with overlap min(t, s).  "arho" is a times
    rho = (t^{2H}-s^{2H}) / max(s, t)^{2H}, rho := 0 where that power is 0
    (or underflows; a is 0 there too), with the powers a took, if it did.
    """
    a, b, p = _lag_letters(h, (t, -s, t - s), (-1.0, -1.0, 1.0),
                           np.minimum(t, s), "b" in names)
    letters = {"a": a, "b": b}
    if "arho" in names:
        te, se = p[:2] if p else (t**(2.0 * h), s**(2.0 * h))
        m = np.where(t >= s, te, se)   # max(s, t)^{2H}, the same power
        letters["arho"] = a * ((te - se) / np.where(m > 0.0, m, 1.0))
    return letters


def _lamperti_letters(h: float, v: np.ndarray, names) -> dict:
    """The letters that ``names`` lists of one coordinate at the Lamperti
    lags v, by name, in the forms of the module docstring.  a is
    e^{H|v|} (e^{-2H|v|} - expm1(2HL)), a bracket of positive terms, halved
    and doubled so that the stationary sheet's factor a/2 keeps its bits.
    b is k sgn(v) (first - second) with k = 2 delta / tan(pi delta), where
    E + T = -2 delta (first - second) and, at H = 1/2, each factor of delta
    takes its limit (k = 2/pi, first = |v| e^{-|v|/2}, second's
    expm1(2 delta L) / (2 delta) = L).  first is taken as
    e^{-min(H, 1-H)|v|} (1 - e^{-2|delta||v|}) / (2|delta|), whose factors
    never overflow.  Where e^{-|v|} is subnormal, expm1(cL) is -c e^{-|v|}
    to rounding: a is e^{-H|v|} + 2H e^{(H-1)|v|} and second is
    -e^{(delta-1/2)|v|}."""
    av, delta = np.abs(v), h - 0.5
    u = np.exp(-av)
    far = u < sys.float_info.min
    # L = log(1 - e^{-|v|}) on the side of |v| = log 2 where it is accurate
    L = np.where(av < math.log(2.0), np.log(-np.expm1(-av)), np.log1p(-u))
    a = np.where(far, np.exp(-h * av) + 2.0 * h * np.exp((h - 1.0) * av),
                 2.0 * np.exp(h * av + np.log(np.exp(-2.0 * h * av)
                                              - np.expm1(2.0 * h * L))
                              - math.log(2.0)))
    letters = {"a": a, "b": None}
    if "b" in names:
        k, w, ex = ((2.0 * delta / math.tan(math.pi * delta),
                     -np.expm1(-2.0 * abs(delta) * av) / (2.0 * abs(delta)),
                     np.expm1(2.0 * delta * L) / (2.0 * delta)) if delta
                    else (2.0 / math.pi, av, L))
        second = np.where(far, -np.exp((delta - 0.5) * av),
                          np.exp(delta * av) * 2.0 * np.sinh(av / 2.0) * ex)
        first = np.exp(-min(h, 1.0 - h) * av) * w
        letters["b"] = np.where(v == 0.0, 0.0,
                                k * np.sign(v) * (first - second))
    if "arho" in names:
        letters["arho"] = a * (-np.sign(v) * np.expm1(-2.0 * h * av))
    return letters


def _table_hurst(H, terms) -> tuple:
    """H checked, and the one check of a term table: some terms, each with
    a finite coefficient and one letter a, b or arho per coordinate, an
    even number of them b or arho, the letters antisymmetric in (t, s)."""
    H = validate_hurst(H)
    if not terms:
        raise ValueError("a term table needs at least one term")
    for coef, row in terms:
        if not (math.isfinite(coef) and len(row) == len(H)
                and {"a", "b", "arho"}.issuperset(row)):
            raise ValueError(f"term {(coef, row)!r} needs a finite "
                             f"coefficient and one letter per coordinate of "
                             f"the {len(H)}-dimensional H, each a, b or arho")
        if (len(row) - row.count("a")) % 2:
            raise ValueError(f"term {(coef, row)!r} has an odd number of "
                             "letters b or arho, which change sign when s "
                             "and t swap")
    return H


def _term_sum(H, terms, coords, letters, out) -> np.ndarray:
    """The one loop of a checked term table: sum_k c_k prod_j phi_kj into
    ``out``, where ``letters(h, *coords[j], names)`` gives coordinate j's
    letters that ``names`` lists, by name, as arrays that broadcast to
    ``out``.  Each product is ((c_k phi_k1) phi_k2) ..., and the products
    are added in table order to 0.0, so a -0.0 product reads 0.  Overflow
    and its NaNs are left to the caller, which checks finiteness; numpy is
    told not to warn.  Returns ``out``."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        values = [letters(h, *coords[j], {row[j] for _, row in terms})
                  for j, h in enumerate(H)]
        for k, (coef, row) in enumerate(terms):
            for lj, name in zip(values, row):
                coef = coef * lj[name]
            np.add(out if k else 0.0, coef, out=out)
    return out


def _sum_terms(H, terms, points, letters, check) -> np.ndarray:
    """``_term_sum`` of a table that ``_table_hurst`` checks, at points,
    box corners or Lamperti lags: coordinate j's letters come from the j-th
    coordinates of the point arrays (..., N) that ``check`` passes
    (``_as_points``, or ``_points`` for lags), into a new array of their
    broadcast shape; one point is taken as an array of one, as in a
    batch."""
    H = _table_hurst(H, terms)
    points = [check(p, len(H)) for p in points]
    shape = np.broadcast_shapes(*(p.shape[:-1] for p in points))
    points = [np.atleast_2d(p) for p in points]   # leading shape: shape or 1
    return _term_sum(H, terms, [[p[..., j] for p in points]
                                for j in range(len(H))],
                     letters, np.empty(shape or 1)).reshape(shape)


def cov_terms_array(H, terms, s, t) -> np.ndarray:
    """The covariance sum_k c_k prod_j phi_kj(t_j, s_j) of a term table
    ((c_1, (phi_11, ..., phi_1N)), ...) at point arrays (..., N) -> (...),
    each coordinate's letters (``_letters_array``) taken once."""
    return _sum_terms(H, terms, (t, s), _letters_array, _as_points)


# the signs of one coordinate's four corner pairs (t, s), t a corner of the
# second box and s one of the first: (hi2, hi1), (lo2, hi1), (hi2, lo1),
# (lo2, lo1)
_PAIR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


def _double_differences(h: float, lo1, hi1, lo2, hi2, names) -> dict:
    """Double differences sum_pairs +-phi(t, s) of one coordinate's letters.

    The letters that ``names`` lists, by name, over the corner pairs of
    [lo1, hi1] (s) and [lo2, hi2] (t), signed by ``_PAIR_SIGNS``.  a and b
    are ``_lag_letters`` over the four lags

        d = (lo2 - lo1) + (w - u, -u, w, 0),   u = hi1 - lo1, w = hi2 - lo2,

    with overlap max(0, min(hi1, hi2) - max(lo1, lo2)); a rho is taken at
    its four corner pairs, so that only this coordinate's part cancels.
    """
    u, w, c = hi1 - lo1, hi2 - lo2, lo2 - lo1
    overlap = np.maximum(0.0, np.minimum(hi1, hi2) - np.maximum(lo1, lo2))
    a, b, _ = _lag_letters(h, (c + (w - u), c - u, c + w, c), _PAIR_SIGNS,
                           overlap, "b" in names)
    out = {"a": a, "b": b}
    if "arho" in names:
        lo1, hi1, lo2, hi2 = np.broadcast_arrays(lo1, hi1, lo2, hi2)
        t = np.stack([hi2, lo2, hi2, lo2], axis=-1)
        s = np.stack([hi1, hi1, lo1, lo1], axis=-1)
        out["arho"] = _letters_array(h, t, s, {"arho"})["arho"] @ _PAIR_SIGNS
    return out


def increment_cov_terms_array(H, terms, lo1, hi1, lo2, hi2) -> np.ndarray:
    """Covariances of the increments over [lo1, hi1] and [lo2, hi2], box
    corners (..., N) -> (...): sum_k c_k prod_j Delta phi_kj, one double
    difference per coordinate and letter (``_double_differences``)."""
    return _sum_terms(H, terms, (lo1, hi1, lo2, hi2), _double_differences,
                      _as_points)


# --------------------------------------------------------------------------
# Covariance functions: one pair of points through the evaluator; a bare
# number is a 1-D point
# --------------------------------------------------------------------------

def cov_strict_general(H, weights: StrictWeights, s, t) -> float:
    """The mixture covariance of the weights at one pair of points."""
    return float(cov_terms_array(H, weights.sign_moment_terms, s, t))


def cov_mild_theta(h1: float, h2: float, theta: float, s, t) -> float:
    """The covariance of ``MildTheta(h1, h2, theta)`` at one pair of points."""
    return float(cov_terms_array((h1, h2), MildTheta(h1, h2, theta).terms,
                                 s, t))


def cov_fbs(H, s, t) -> float:
    """Fractional Brownian sheet: 2^{-N} prod_k (t^{2H}+s^{2H}-|t-s|^{2H})."""
    H = validate_hurst(H)
    return float(cov_terms_array(
        H, StrictWeights.uniform(len(H)).sign_moment_terms, s, t))


def _mild_terms(theta: float) -> tuple:
    """((1/4, (a, a)), (theta/16, (a rho, a rho))) of a finite theta; 0
    drops the second term, as zero sign moments drop theirs."""
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    terms = ((0.25, ("a", "a")), (theta / 16.0, ("arho", "arho")))
    return terms if theta != 0.0 else terms[:1]


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
    specification, the only two with a term table (``terms``), which
    :func:`make_kernel` evaluates.
    """

    @property
    def hurst(self):
        return (self.h1, self.h2)

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

    @property
    def terms(self):
        return self.weights.sign_moment_terms


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
        _mild_terms(self.theta)   # checks theta
        _warn_theta(self.theta)

    @property
    def terms(self):
        return _mild_terms(self.theta)


@dataclass(frozen=True)
class YHalf(_Family):
    """Mild family at H = (1/2, 1/2): ``MildTheta(1/2, 1/2, theta)``."""

    theta: float

    family = "yhalf"
    h1 = h2 = 0.5

    def __post_init__(self):   # validates theta and warns, once
        object.__setattr__(self, "_mild", MildTheta(0.5, 0.5, self.theta))

    def canonical(self):
        return self._mild


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
    return (d0 * d0 + 2.0 * d0 * d1 * _sin_pi(h1) * _sin_pi(h2)
            + d1 * d1 - 1.0)


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
        |gamma| <= d0^2 + d1^2 + 2 d0 d1 sin a sin b = 1.  Each cos(pi H)
        is taken as -sin(pi (H - 1/2)): H - 1/2 is exact near the seam,
        where pi H rounds to an error as large as cos(pi H) itself.
        """
        if self.h1 == 0.5:
            return 2.0 * self.d0 * self.d1
        return (2.0 * self.d0 * self.d1 * math.sin(math.pi * (self.h1 - 0.5))
                * math.sin(math.pi * (self.h2 - 0.5)))

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
    """A field's covariance: the term table ``terms`` over its Hurst vector
    ``H``, with the spec it was built from.

    ``batch(S, T)`` takes point arrays of shape (..., N) that broadcast
    against each other and returns the covariances, shape (...); it is
    ``cov_terms_array`` of the table.  Called on two points (a bare number
    is a 1-D point), the kernel returns ``float(batch(s, t))``.  The
    kernel claims mild-only stationarity exactly when a term has an "arho"
    letter (see the module docstring).
    """

    spec: FieldSpec
    H: tuple
    terms: tuple

    def batch(self, s, t) -> np.ndarray:
        return cov_terms_array(self.H, self.terms, s, t)

    def __call__(self, s, t) -> float:
        return float(self.batch(*np.atleast_1d(s, t)))

    @property
    def claimed_class(self) -> StationarityClass:
        if any("arho" in row for _, row in self.terms):
            return StationarityClass.MILD_ONLY
        return StationarityClass.STRICT_WIDE

    @property
    def hurst(self):
        return self.H

    @property
    def n(self) -> int:
        return len(self.H)


def make_kernel(spec: FieldSpec) -> CovKernel:
    """Build the evaluable covariance kernel for a field specification:
    the term table of its canonical form, checked once, here."""
    if not isinstance(spec, _Family):
        raise TypeError(f"unknown field specification {type(spec).__name__}")
    canon = spec.canonical()
    return CovKernel(spec, _table_hurst(canon.hurst, canon.terms),
                     canon.terms)
