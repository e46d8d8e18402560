"""Rectangular-increment algebra over covariance kernels.

The increment of a field X over the box [s, t] is the alternating sum of X
over the 2^N corners of the box; its second moments follow from the kernel
by bilinearity.  On top of that algebra sits a numerical classifier that
probes whether increment covariances are invariant under shifting the box
anchor: invariance of all cross covariances means wide-sense (for Gaussian
fields, strictly) stationary rectangular increments, invariance of the
variances alone means the mild property, and neither means none.

The algebra is batched over stacks of box pairs.  A kernel's increment
covariances come from its term table one coordinate at a time, from the
lags between the boxes' corners (``kernels.increment_cov_terms_array``), so
they keep their digits however far out the boxes are anchored.
``increment_cov`` takes one pair of boxes that way, and
``probe_covariances`` fills the table of every probe covariance of a plan,
a block of probe pairs per call; the classifier and the analytic values of
the Monte Carlo probes read that table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import (CovKernel, NonFiniteError, StationarityClass,
                      _as_points, increment_cov_terms_array)

PLAN_BLOCK = 1 << 16      # corner pairs per kernel call in probe_covariances
TOL_INVARIANT = 1e-8      # classifier residuals up to this are invariant,
TOL_VIOLATION = 1e-4      # from this on a violation; between, inconclusive

__all__ = [
    "Rectangle",
    "corner_expansion",
    "increment_cov",
    "y_half_increment_cov_closed",
    "ProbePlan",
    "probe_covariances",
    "ClassificationReport",
    "InconclusiveClassification",
    "classify_stationarity",
]


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned box [s, t] in the positive orthant with s_k <= t_k."""

    s: tuple
    t: tuple

    def __post_init__(self):
        s = tuple(float(v) for v in np.atleast_1d(self.s))
        t = tuple(float(v) for v in np.atleast_1d(self.t))
        if len(s) != len(t):
            raise ValueError(f"corner dimensions differ: {len(s)} vs {len(t)}")
        for sk, tk in zip(s, t):
            if not (0.0 <= sk <= tk < math.inf):
                raise ValueError(f"need 0 <= s_k <= t_k < inf, got s={s}, t={t}")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t", t)

    @property
    def n(self) -> int:
        return len(self.s)

    def shifted(self, h) -> "Rectangle":
        h = tuple(float(v) for v in np.atleast_1d(h))
        if len(h) != self.n:   # zip would cut the longer one to fit
            raise ValueError(f"shift has dimension {len(h)}, the box {self.n}")
        return Rectangle(tuple(a + b for a, b in zip(self.s, h)),
                         tuple(a + b for a, b in zip(self.t, h)))


def corner_expansion(r: Rectangle) -> list:
    """Signed corners [(point, sign), ...] whose weighted sum is the increment.

    Corner for index vector i has coordinates t_k - i_k (t_k - s_k) and sign
    (-1)^{sum i_k}; the all-zero index gives (t, +1).  Signs sum to zero.
    """
    corners, signs = _corners(r.s, r.t)
    return [(tuple(pt), int(sg))
            for pt, sg in zip(corners.tolist(), signs.tolist())]


def _corners(lo, hi):
    """Corners (..., 2^N, N) of the boxes [lo, hi] (..., N), and their signs.

    Corner i takes lo_k where bit N-1-k of i is set and hi_k elsewhere, with
    sign (-1)^(set bits).
    """
    lo = np.asarray(lo, dtype=float)
    n = lo.shape[-1]
    mask = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1 == 1
    signs = np.where(mask.sum(axis=1) % 2 == 1, -1.0, 1.0)
    corners = np.where(mask, lo[..., None, :],
                       np.asarray(hi, dtype=float)[..., None, :])
    return corners, signs


def _increment_covs(kernel: CovKernel, lo1, hi1, lo2, hi2) -> np.ndarray:
    """Covariances of the increments over [lo1, hi1] and [lo2, hi2], from
    the kernel's term table by the lags.

    The box corners broadcast against each other over their leading axes;
    the result has the broadcast leading shape.  A non-finite covariance
    raises ``NonFiniteError``, naming the first pair of boxes where it
    occurs.
    """
    C = increment_cov_terms_array(kernel.H, kernel.terms, lo1, hi1, lo2, hi2)
    bad = np.argwhere(~np.isfinite(C))
    if len(bad):
        box = [np.broadcast_to(a, C.shape + np.shape(a)[-1:])[tuple(bad[0])]
               for a in (lo1, hi1, lo2, hi2)]
        raise NonFiniteError("kernel returned a non-finite increment covariance"
                             " for the boxes [{}, {}] and [{}, {}]".format(*box))
    return C


def increment_cov(kernel: CovKernel, r1: Rectangle, r2: Rectangle) -> float:
    """E[increment over r1 * increment over r2], from the kernel's term
    table by the lags between the corners of the two boxes."""
    if r1.n != r2.n:
        raise ValueError(f"rectangle dimensions differ: {r1.n} vs {r2.n}")
    return float(_increment_covs(kernel, r1.s, r1.t, r2.s, r2.t))


def y_half_increment_cov_closed(theta: float, h, s, t) -> float:
    """Closed shifted-increment covariance of the mild H=(1/2,1/2) family.

    For boxes [h, s+h] and [h, t+h] with 0 < s_k < t_k, h_k >= 0:

        s1 s2 (1 + (theta/4) (2h1+s1)(2h2+s2)(t1-s1)(t2-s2)
                              / ((h1+s1)(h2+s2)(h1+t1)(h2+t2)))

    The h-dependence of this cross covariance (while the variances are
    h-free) is what separates the mild class from the wide-sense one.
    """
    h, s, t = (_as_points(p, 2).tolist() for p in (h, s, t))
    for k in range(2):
        if not 0.0 < s[k] < t[k]:
            raise ValueError(f"need 0 < s_k < t_k, got s={s}, t={t}")
    num = (2 * h[0] + s[0]) * (2 * h[1] + s[1]) * (t[0] - s[0]) * (t[1] - s[1])
    den = (h[0] + s[0]) * (h[1] + s[1]) * (h[0] + t[0]) * (h[1] + t[1])
    return s[0] * s[1] * (1.0 + 0.25 * theta * num / den)


# --------------------------------------------------------------------------
# Stationarity classification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbePlan:
    """Sampling plan for the shift-invariance probes.

    u_pairs are box-extent pairs (u1, u2) drawn from (0, box]^N, shifts are
    anchors h in [0, shift_box]^N; the variance probes reuse each u1 with
    itself.  Built with a fixed seed so classification is reproducible.
    Extents must be finite and positive, anchors finite and nonnegative,
    one of them away from h = 0 (at h = 0 alone every probe compares a
    value with itself), all of one dimension N, and every corner finite.
    """

    u_pairs: tuple
    shifts: tuple

    def __post_init__(self):
        if not self.u_pairs or not self.shifts:
            raise ValueError("a probe plan needs at least one pair and one "
                             "shift")
        try:
            u = np.asarray(self.u_pairs, dtype=float)
            h = np.asarray(self.shifts, dtype=float)
        except (TypeError, ValueError):   # ragged, or not numbers
            u = h = np.zeros(0)
        if not (u.ndim == 3 and u.shape[1] == 2 and h.ndim == 2
                and h.shape[1] == u.shape[2] > 0):
            raise ValueError("u_pairs and shifts must hold pairs (u1, u2) "
                             "of extents and anchors h, all vectors of one "
                             "dimension")
        if not np.all(np.isfinite(u) & (u > 0.0)):
            raise ValueError("u_pairs must hold finite extents > 0")
        if not np.all(np.isfinite(h) & (h >= 0.0)):
            raise ValueError("shifts must hold finite anchors >= 0")
        if not math.isfinite(float(u.max()) + float(h.max())):
            raise ValueError("u_pairs and shifts must keep the farthest "
                             "corner finite")
        if not h.any():
            raise ValueError("shifts need an anchor other than h = 0: there "
                             "every probe compares a value with itself")

    @classmethod
    def default(cls, n: int, n_pairs: int = 20, n_shifts: int = 10,
                box: float = 2.0, shift_box: float = 3.0,
                seed: int = 20240601) -> "ProbePlan":
        """Extents from uniform(0.05, box)^N, anchors from uniform(0, shift_box)^N.

        ``box`` must exceed 0.05 and ``shift_box`` must be positive: with
        every anchor at h = 0 the probes compare each value with itself.
        """
        if not box > 0.05:
            raise ValueError(f"box must exceed 0.05, got {box!r}")
        if not shift_box > 0.0:
            raise ValueError(f"shift_box must be positive, got {shift_box!r}")
        if not math.isfinite(box + shift_box):   # the farthest corner
            raise ValueError(f"box + shift_box must be finite, got {box!r} + "
                             f"{shift_box!r}")
        rng = np.random.default_rng(seed)
        pairs = tuple(
            (tuple(rng.uniform(0.05, box, n)), tuple(rng.uniform(0.05, box, n)))
            for _ in range(n_pairs))
        shifts = tuple(tuple(rng.uniform(0.0, shift_box, n))
                       for _ in range(n_shifts))
        return cls(u_pairs=pairs, shifts=shifts)


def probe_covariances(kernel: CovKernel, plan: ProbePlan) -> np.ndarray:
    """Increment covariances of every probe of a plan, shape (P, 3, S + 1).

    C[p, j, k] is the covariance of the increments over [h_k, x + h_k] and
    [h_k, y + h_k], where (x, y) is (u1, u1), (u1, u2), (u2, u2) for
    j = 0, 1, 2 with (u1, u2) = plan.u_pairs[p], h_0 = 0 and
    h_k = plan.shifts[k - 1].  So C[:, :2, 0] are the references of the
    var and cross probes, C[:, :2, 1:] their shifted values, and C[:, 0]
    and C[:, 2] the variances of the two boxes.  The pairs go to the kernel
    in blocks of at most ``PLAN_BLOCK`` corner pairs (at least one probe
    pair per block).
    """
    u = np.asarray(plan.u_pairs, dtype=float)                     # (P, 2, N)
    h = np.concatenate([np.zeros((1, u.shape[-1])),
                        np.asarray(plan.shifts, dtype=float)])    # (S + 1, N)
    x = u[:, [0, 0, 1], None, :] + h
    y = u[:, [0, 1, 1], None, :] + h
    step = max(1, PLAN_BLOCK // (3 * len(h) * 4 ** u.shape[-1]))
    return np.concatenate([_increment_covs(kernel, h, x[i:i + step],
                                           h, y[i:i + step])
                           for i in range(0, len(u), step)])


class InconclusiveClassification(RuntimeError):
    """Residuals fall between the invariance and violation thresholds."""


@dataclass
class ClassificationReport:
    label: StationarityClass | None
    max_var_residual: float
    max_cross_residual: float
    tol_invariant: float
    tol_violation: float
    rows: list = field(default_factory=list)

    @property
    def inconclusive(self) -> bool:
        return self.label is None

    def require_label(self) -> StationarityClass:
        if self.label is None:
            raise InconclusiveClassification(
                f"variance residual {self.max_var_residual:.3e} and cross "
                f"residual {self.max_cross_residual:.3e} straddle the "
                f"[{self.tol_invariant:.1e}, {self.tol_violation:.1e}] band")
        return self.label


def classify_stationarity(kernel: CovKernel,
                          plan: ProbePlan | None = None) -> ClassificationReport:
    """Probe shift-invariance of increment covariances and classify the kernel.

    For every probe pair (u1, u2) and every shift h, the covariance of the
    increments over [h, u1+h] and [h, u2+h] is compared against its h = 0
    value, relative to the geometric mean of the two increment variances.
    Residuals below ``TOL_INVARIANT`` count as invariant, above
    ``TOL_VIOLATION`` as a detected violation; anything in between leaves
    the verdict inconclusive (label None) rather than guessing.
    """
    if plan is None:
        plan = ProbePlan.default(kernel.n)

    C = probe_covariances(kernel, plan)
    ref, val = C[:, :2, 0], C[:, :2, 1:]                         # (P, 2, S)
    var = np.maximum(C[:, [0, 2], 0], 0.0)
    scale = np.maximum(np.sqrt(var[:, [0, 0]] * var), 1e-300)    # (P, 2)
    resid = np.abs(val - ref[..., None]) / scale[..., None]
    max_var = float(resid[:, 0].max())
    max_cross = float(resid[:, 1].max())

    rows = []
    val, ref, resid = val.tolist(), ref.tolist(), resid.tolist()
    for p, (u1, u2) in enumerate(plan.u_pairs):
        for v, (variant, u) in enumerate((("var", u1), ("cross", u2))):
            for k, shift in enumerate(plan.shifts):
                rows.append({"kind": variant, "u1": u1, "u2": u, "h": shift,
                             "value": val[p][v][k], "reference": ref[p][v],
                             "residual": resid[p][v][k]})

    label: StationarityClass | None
    if max_var <= TOL_INVARIANT and max_cross <= TOL_INVARIANT:
        label = StationarityClass.STRICT_WIDE
    elif max_var <= TOL_INVARIANT and max_cross >= TOL_VIOLATION:
        label = StationarityClass.MILD_ONLY
    elif max_var >= TOL_VIOLATION:
        label = StationarityClass.NONE
    else:
        label = None
    return ClassificationReport(label=label, max_var_residual=max_var,
                                max_cross_residual=max_cross,
                                tol_invariant=TOL_INVARIANT,
                                tol_violation=TOL_VIOLATION, rows=rows)
