"""Rectangular-increment algebra and stationarity classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from rectfield import increments
from rectfield.increments import (
    InconclusiveClassification,
    ProbePlan,
    Rectangle,
    classify_stationarity,
    corner_expansion,
    increment_cov,
    probe_covariances,
    y_half_increment_cov_closed,
)
from rectfield.kernels import (
    FBS,
    MildTheta,
    MovingPair,
    StationarityClass,
    Strict2D,
    StrictGeneral,
    StrictWeights,
    YHalf,
    ZHalf,
    make_kernel,
)


def test_rectangle_validation():
    Rectangle((0.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        Rectangle((1.0, 0.0), (0.5, 1.0))
    with pytest.raises(ValueError):
        Rectangle((0.0,), (1.0, 1.0))
    with pytest.raises(ValueError):
        Rectangle((-0.5, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        Rectangle((0.0, 0.0), (1.0, math.inf))


def test_corner_expansion_1d():
    corners = corner_expansion(Rectangle((0.25,), (1.5,)))
    assert corners == [((1.5,), 1), ((0.25,), -1)]


def test_corner_expansion_2d():
    corners = corner_expansion(Rectangle((0.0, 0.0), (1.0, 1.0)))
    assert corners[0] == ((1.0, 1.0), 1)
    assert set(corners) == {((1.0, 1.0), 1), ((0.0, 1.0), -1),
                            ((1.0, 0.0), -1), ((0.0, 0.0), 1)}
    assert sum(sg for _, sg in corners) == 0


def test_corner_expansion_degenerate():
    corners = corner_expansion(Rectangle((1.0, 2.0), (1.0, 2.0)))
    # all corners coincide, so any function sums to zero against the signs
    val = sum(sg * math.exp(pt[0] + pt[1]) for pt, sg in corners)
    assert val == pytest.approx(0.0, abs=1e-12)


@given(st.integers(min_value=1, max_value=4))
@settings(max_examples=20, deadline=None)
def test_corner_signs_balance(n):
    r = Rectangle(tuple(0.5 for _ in range(n)), tuple(1.5 for _ in range(n)))
    corners = corner_expansion(r)
    assert len(corners) == 2 ** n
    assert sum(sg for _, sg in corners) == 0


def test_increment_variance_fbs():
    kernel = make_kernel(FBS((0.3, 0.7)))
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = rng.uniform(0.0, 2.0, 2)
        t = s + rng.uniform(0.05, 2.0, 2)
        r = Rectangle(s, t)
        want = (t[0] - s[0]) ** 0.6 * (t[1] - s[1]) ** 1.4
        assert increment_cov(kernel, r, r) == pytest.approx(want, rel=1e-10)


def test_increment_variance_strict_2d():
    kernel = make_kernel(Strict2D(0.3, 0.7, 0.8))
    rng = np.random.default_rng(12)
    for _ in range(100):
        s = rng.uniform(0.0, 2.0, 2)
        t = s + rng.uniform(0.05, 2.0, 2)
        r = Rectangle(s, t)
        want = (t[0] - s[0]) ** 0.6 * (t[1] - s[1]) ** 1.4
        assert increment_cov(kernel, r, r) == pytest.approx(want, rel=1e-10)


def test_disjoint_increment_covariances():
    # increments over [0,t] and [(t1,0), 2t] are dependent unless theta = 0
    t1, t2 = 1.3, 0.8
    r1 = Rectangle((0.0, 0.0), (t1, t2))
    r2 = Rectangle((t1, 0.0), (2 * t1, 2 * t2))
    k_y = make_kernel(YHalf(1.0))
    assert increment_cov(k_y, r1, r2) == pytest.approx(t1 * t2 / 16.0,
                                                       rel=1e-12)
    k_z = make_kernel(ZHalf(0.6))
    want = 4 * 0.6 * math.log(2.0) ** 2 / math.pi ** 2 * t1 * t2
    assert increment_cov(k_z, r1, r2) == pytest.approx(want, rel=1e-12)
    k_w = make_kernel(FBS((0.5, 0.5)))
    assert increment_cov(k_w, r1, r2) == pytest.approx(0.0, abs=1e-12)
    # away from H = 1/2 even the plain sheet has dependent increments
    k_f = make_kernel(FBS((0.7, 0.7)))
    assert abs(increment_cov(k_f, r1, r2)) > 1e-3


def test_increment_additivity():
    # splitting a box along an axis splits its increment
    kernel = make_kernel(FBS((0.4, 0.6)))
    r = Rectangle((0.5, 0.5), (2.0, 1.5))
    mid = 1.2
    left = Rectangle((0.5, 0.5), (mid, 1.5))
    right = Rectangle((mid, 0.5), (2.0, 1.5))
    whole = increment_cov(kernel, r, r)
    parts = (increment_cov(kernel, left, left)
             + 2 * increment_cov(kernel, left, right)
             + increment_cov(kernel, right, right))
    assert whole == pytest.approx(parts, rel=1e-10)


def test_increment_dimension_mismatch():
    kernel = make_kernel(FBS((0.5, 0.5)))
    with pytest.raises(ValueError):
        increment_cov(kernel, Rectangle((0.0,), (1.0,)),
                      Rectangle((0.0, 0.0), (1.0, 1.0)))


def test_y_half_closed_examples():
    assert y_half_increment_cov_closed(1.0, (0, 0), (1, 1), (2, 2)) == \
        pytest.approx(1.0 + 1.0 / 16.0, rel=1e-14)
    assert y_half_increment_cov_closed(0.0, (3, 5), (1, 1), (2, 2)) == 1.0
    assert y_half_increment_cov_closed(1.0, (1, 1), (1, 1), (2, 2)) == \
        pytest.approx(1.0625, rel=1e-14)
    with pytest.raises(ValueError):
        y_half_increment_cov_closed(1.0, (0, 0), (2, 1), (1, 2))


def test_y_half_closed_matches_bilinear_expansion():
    rng = np.random.default_rng(13)
    for _ in range(100):
        theta = rng.uniform(-1.0, 1.0)
        h = rng.uniform(0.0, 3.0, 2)
        s = rng.uniform(0.05, 2.0, 2)
        t = s + rng.uniform(0.05, 2.0, 2)
        kernel = make_kernel(YHalf(theta))
        r1 = Rectangle(h, s + h)
        r2 = Rectangle(h, t + h)
        want = y_half_increment_cov_closed(theta, h, s, t)
        assert increment_cov(kernel, r1, r2) == pytest.approx(want, rel=1e-10)


def test_y_half_violation_is_detectable():
    # some probe must move by more than 1e-3 as the anchor shifts
    kernel = make_kernel(YHalf(1.0))
    u1, u2 = np.array([1.0, 1.0]), np.array([2.0, 0.5])
    base = increment_cov(kernel, Rectangle((0, 0), u1), Rectangle((0, 0), u2))
    moved = increment_cov(kernel,
                          Rectangle((1.0, 1.0), u1 + 1.0),
                          Rectangle((1.0, 1.0), u2 + 1.0))
    assert abs(moved - base) > 1e-3


def test_classify_families():
    assert classify_stationarity(make_kernel(FBS((0.3, 0.7)))).require_label() \
        is StationarityClass.STRICT_WIDE
    assert classify_stationarity(make_kernel(Strict2D(0.3, 0.7, 0.5))
                                 ).require_label() is StationarityClass.STRICT_WIDE
    assert classify_stationarity(make_kernel(ZHalf(1.0))).require_label() \
        is StationarityClass.STRICT_WIDE
    report = classify_stationarity(make_kernel(YHalf(1.0)))
    assert report.require_label() is StationarityClass.MILD_ONLY
    assert report.max_var_residual <= 1e-8
    assert report.max_cross_residual >= 1e-4


def test_classify_synthetic_nonstationary():
    base = make_kernel(FBS((0.5, 0.5)))

    def warped(s, t):
        return base.batch(s, t) * np.sqrt((1 + s[..., 0]) * (1 + t[..., 0]))

    plan = ProbePlan.default(2)
    report = classify_stationarity(warped, plan=plan)
    assert report.require_label() is StationarityClass.NONE


def test_classify_requires_plan_for_bare_callables():
    with pytest.raises(ValueError):
        classify_stationarity(lambda s, t: 0.0)


def test_classify_inconclusive_band():
    base = make_kernel(FBS((0.5, 0.5)))

    def slightly_off(s, t):
        return base.batch(s, t) * (1 + 1e-6 * (s[..., 0] + t[..., 0]))

    plan = ProbePlan.default(2, n_pairs=5, n_shifts=4)
    report = classify_stationarity(slightly_off, plan=plan)
    assert report.inconclusive
    with pytest.raises(InconclusiveClassification):
        report.require_label()


def test_probe_plan_rejects_empty_ranges_and_plans():
    # box <= 0.05 leaves uniform(0.05, box) empty or a point; shift_box <= 0
    # puts every anchor at h = 0, where every probe compares a value with
    # itself and a mild field passes as strict
    for kw in ({"box": 0.01}, {"box": 0.05}, {"box": -1.0},
               {"shift_box": 0.0}, {"shift_box": -1.0}, {"box": math.nan}):
        with pytest.raises(ValueError, match="box"):
            ProbePlan.default(2, **kw)
    with pytest.raises(ValueError, match="at least one"):
        ProbePlan(u_pairs=(), shifts=((0.0, 0.0),))
    with pytest.raises(ValueError, match="at least one"):
        ProbePlan.default(2, n_shifts=0)


def test_probe_plan_reproducible():
    a = ProbePlan.default(2)
    b = ProbePlan.default(2)
    assert a == b
    assert len(a.u_pairs) == 20
    assert len(a.shifts) == 10


# --------------------------------------------------------------------------
# The batched classifier against a scalar corner loop
# --------------------------------------------------------------------------

def _corner_loop(ev, H, r1, r2):
    """Increment covariance by the scalar corner loop, and its scale.

    The scale sums max(|K|, prod_k max(p_k, q_k)^{2 H_k}) over the corner
    pairs: the size of the terms the contraction adds up.
    """
    total, scale = 0.0, 0.0
    for p, sg1 in corner_expansion(r1):
        for q, sg2 in corner_expansion(r2):
            k = ev(p, q)
            total += sg1 * sg2 * k
            scale += max(abs(k), math.prod(max(a, b) ** (2 * h)
                                           for a, b, h in zip(p, q, H)))
    return total, scale


def _classify_reference(ev, H, plan):
    """Rows and label of ``classify_stationarity``, one corner loop per box."""
    rows, max_var, max_cross = [], 0.0, 0.0
    for u1, u2 in plan.u_pairs:
        for kind, (a, b) in (("var", (u1, u1)), ("cross", (u1, u2))):
            zero = tuple(0.0 for _ in a)
            r1, r2 = Rectangle(zero, a), Rectangle(zero, b)
            ref, ref_scale = _corner_loop(ev, H, r1, r2)
            scale = max(math.sqrt(max(_corner_loop(ev, H, r1, r1)[0], 0.0)
                                  * max(_corner_loop(ev, H, r2, r2)[0], 0.0)),
                        1e-300)
            for h in plan.shifts:
                val, val_scale = _corner_loop(ev, H, r1.shifted(h),
                                              r2.shifted(h))
                resid = abs(val - ref) / scale
                rows.append({"kind": kind, "u1": a, "u2": b, "h": h,
                             "value": val, "reference": ref, "residual": resid,
                             "value_scale": val_scale, "ref_scale": ref_scale,
                             "scale": scale})
                if kind == "var":
                    max_var = max(max_var, resid)
                else:
                    max_cross = max(max_cross, resid)
    if max_var <= 1e-8 and max_cross <= 1e-8:
        label = StationarityClass.STRICT_WIDE
    elif max_var <= 1e-8 and max_cross >= 1e-4:
        label = StationarityClass.MILD_ONLY
    elif max_var >= 1e-4:
        label = StationarityClass.NONE
    else:
        label = None
    return rows, label


def _warped(s, t):
    """A bare array-native covariance, points (..., 2) -> (...)."""
    s, t = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    return (make_kernel(FBS((0.5, 0.5))).batch(s, t)
            * np.sqrt((1 + s[..., 0]) * (1 + t[..., 0])))


def _warped_scalar(s, t):
    """``_warped`` at one pair of points, through the scalar oracle."""
    return oracle.cov_fbs((0.5, 0.5), s, t) * math.sqrt((1 + s[0]) * (1 + t[0]))


_CLASSIFY_CASES = [
    FBS((0.3, 0.7)), FBS((0.5, 0.5)), FBS((0.3, 0.6, 0.8)),
    Strict2D(0.3, 0.7, 0.5), Strict2D(0.5, 0.5, -0.4), ZHalf(1.0),
    MildTheta(0.3, 0.7, 0.5), MildTheta(0.5, 0.7, -0.9), YHalf(1.0),
    MovingPair(0.5, 0.5, 0.6, 0.8),
    StrictGeneral((0.3, 0.5, 0.8), StrictWeights(
        {(1, 1, 1): 0.2, (-1, -1, -1): 0.2, (1, 1, -1): 0.05,
         (-1, -1, 1): 0.05, (1, -1, 1): 0.15, (-1, 1, -1): 0.15,
         (-1, 1, 1): 0.1, (1, -1, -1): 0.1})),
    "bare callable",
]


@pytest.mark.parametrize("case", _CLASSIFY_CASES, ids=repr)
def test_classify_matches_scalar_corner_loop(case):
    if case == "bare callable":
        kernel, ev, H = _warped, _warped_scalar, (0.5, 0.5)
    else:
        kernel = make_kernel(case)
        ev, H = oracle.evaluator(case), case.hurst
    plan = ProbePlan.default(len(H), n_pairs=4, n_shifts=3, seed=21)
    report = classify_stationarity(kernel, plan=plan)
    want_rows, want_label = _classify_reference(ev, H, plan)
    assert report.label is want_label
    assert len(report.rows) == len(want_rows)
    for got, want in zip(report.rows, want_rows):
        assert list(got) == ["kind", "u1", "u2", "h", "value", "reference",
                             "residual"]
        assert [got[k] for k in ("kind", "u1", "u2", "h")] == \
            [want[k] for k in ("kind", "u1", "u2", "h")]
        assert abs(got["value"] - want["value"]) <= 1e-14 * want["value_scale"]
        assert abs(got["reference"] - want["reference"]) <= \
            1e-14 * want["ref_scale"]
        # the residual divides both errors by the variance scale
        assert abs(got["residual"] - want["residual"]) <= (
            1e-14 * (want["value_scale"] + want["ref_scale"]) / want["scale"]
            + 1e-12 * want["residual"])


def test_probe_covariances_layout_and_blocks(monkeypatch):
    # one probe pair per kernel call must give the same bits as one call
    kernel = make_kernel(FBS((0.3, 0.6, 0.8)))
    plan = ProbePlan.default(3, n_pairs=5, n_shifts=3, seed=4)
    C = probe_covariances(kernel, plan)
    assert C.shape == (5, 3, 4)
    monkeypatch.setattr(increments, "PLAN_BLOCK", 1)
    assert np.array_equal(probe_covariances(kernel, plan), C)
    zero = (0.0, 0.0, 0.0)
    for p, (u1, u2) in enumerate(plan.u_pairs):
        for j, (x, y) in enumerate(((u1, u1), (u1, u2), (u2, u2))):
            for k, h in enumerate((zero,) + plan.shifts):
                want, scale = _corner_loop(
                    oracle.evaluator(kernel.spec), kernel.hurst,
                    Rectangle(zero, x).shifted(h), Rectangle(zero, y).shifted(h))
                assert abs(C[p, j, k] - want) <= 1e-14 * scale


@pytest.mark.parametrize("h, s, t", [
    ((math.inf, 0.0), (1.0, 1.0), (2.0, 2.0)),
    ((0.0, math.nan), (1.0, 1.0), (2.0, 2.0)),
    ((0.0, 0.0), (1.0, 1.0), (2.0, math.inf)),
    ((-1.0, 0.0), (1.0, 1.0), (2.0, 2.0)),
    ((0.0, 0.0), (1.0, 1.0), (2.0, 2.0, 2.0)),
], ids=["inf h", "nan h", "inf t", "negative h", "3-D t"])
def test_y_half_closed_rejects_bad_points(h, s, t):
    with pytest.raises(ValueError):
        y_half_increment_cov_closed(1.0, h, s, t)
