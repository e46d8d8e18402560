"""Rectangular-increment algebra and stationarity classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from rectfield import increments, kernels
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
    NonFiniteError,
    StationarityClass,
    Strict2D,
    StrictGeneral,
    StrictWeights,
    YHalf,
    ZHalf,
    _double_differences,
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


@pytest.mark.parametrize("h", [(1.0,), (1.0, 1.0, 1.0)], ids=["1-D", "3-D"])
def test_shift_of_another_dimension_is_rejected(h):
    # zip cut the longer of box and shift: a 1-D shift of a 2-D box gave
    # the 1-D box s=(1.5,), t=(2.0,)
    r = Rectangle((0.5, 0.5), (1.0, 1.0))
    with pytest.raises(ValueError, match=f"shift has dimension {len(h)}, "
                                         f"the box 2"):
        r.shifted(h)
    assert r.shifted((1.0, 2.0)) == Rectangle((1.5, 2.5), (2.0, 3.0))


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


def _warp_by_anchor(monkeypatch, eps):
    """Scale every increment covariance by 1 + eps lo_1, lo_1 the first
    anchor coordinate of the first box, so the variances of the probes
    move with their anchor."""
    exact = increments.increment_cov_terms_array

    def warped(H, terms, lo1, hi1, lo2, hi2):
        return (exact(H, terms, lo1, hi1, lo2, hi2)
                * (1.0 + eps * np.asarray(lo1)[..., 0]))

    monkeypatch.setattr(increments, "increment_cov_terms_array", warped)


def test_classify_synthetic_nonstationary(monkeypatch):
    _warp_by_anchor(monkeypatch, 1.0)
    report = classify_stationarity(make_kernel(FBS((0.5, 0.5))),
                                   plan=ProbePlan.default(2))
    assert report.require_label() is StationarityClass.NONE


def test_classify_inconclusive_band(monkeypatch):
    _warp_by_anchor(monkeypatch, 1e-6)
    plan = ProbePlan.default(2, n_pairs=5, n_shifts=4)
    report = classify_stationarity(make_kernel(FBS((0.5, 0.5))), plan=plan)
    assert report.inconclusive
    with pytest.raises(InconclusiveClassification):
        report.require_label()


def test_probe_plan_rejects_empty_ranges_and_plans():
    # box <= 0.05 leaves uniform(0.05, box) empty or a point; shift_box <= 0
    # puts every anchor at h = 0, where every probe compares a value with
    # itself and a mild field passes as strict; corners past the float range
    # made the kernel's point check fail mid-run
    for kw in ({"box": 0.01}, {"box": 0.05}, {"box": -1.0},
               {"shift_box": 0.0}, {"shift_box": -1.0}, {"box": math.nan},
               {"box": math.inf}, {"box": 1.7e308, "shift_box": 1.7e308}):
        with pytest.raises(ValueError, match="box"):
            ProbePlan.default(2, **kw)
    with pytest.raises(ValueError, match="at least one"):
        ProbePlan(u_pairs=(), shifts=((0.0, 0.0),))
    with pytest.raises(ValueError, match="at least one"):
        ProbePlan.default(2, n_shifts=0)
    # a plan built directly: every anchor at h = 0 and a zero extent passed
    # a mild field as strict with both residuals 0.0, a pair of mixed
    # dimension failed in numpy, and an overflowing corner in the kernel's
    # point check
    u = (((1.0, 1.0), (1.0, 2.0)),)
    for kw, field in (({"shifts": ((0.0, 0.0),)}, "shifts"),
                      ({"shifts": ((0.0, 0.0), (0.0, 0.0))}, "shifts"),
                      ({"shifts": ((-1.0, 0.5),)}, "shifts"),
                      ({"shifts": ((math.inf, 0.5),)}, "shifts"),
                      ({"u_pairs": (((0.0, 0.0), (1.0, 2.0)),)}, "u_pairs"),
                      ({"u_pairs": (((1.0, math.nan), (1.0, 2.0)),)},
                       "u_pairs"),
                      ({"u_pairs": (((1.0,), (1.0, 2.0)),)}, "u_pairs"),
                      ({"shifts": ((1.0, 0.5, 0.5),)}, "u_pairs and shifts"),
                      ({"u_pairs": (((), ()),), "shifts": ((),)},
                       "u_pairs and shifts"),
                      ({"u_pairs": (((1.7e308, 1.0), (1.0, 1.0)),),
                        "shifts": ((1.7e308, 0.5),)}, "farthest corner")):
        with pytest.raises(ValueError, match=field):
            ProbePlan(**{"u_pairs": u, "shifts": ((1.0, 0.5),), **kw})
    ProbePlan(u_pairs=u, shifts=((0.0, 0.0), (1.0, 0.0)))


def test_non_finite_increment_covariances_raise():
    # 1e300^1.8 overflows: increment_cov returned inf with a RuntimeWarning
    # and the probes reached the classifier as NaN residuals
    kernel = make_kernel(FBS((0.9, 0.9)))
    far = Rectangle((0.0, 0.0), (1e300, 1e300))
    with pytest.raises(NonFiniteError, match=r"boxes \[\[0\. 0\.\], "):
        increment_cov(kernel, far, far)
    # the lags of boxes anchored near 1e300 are finite; the mild letter's
    # corner values are not
    plan = ProbePlan.default(2, n_pairs=1, n_shifts=1, shift_box=1e300)
    with pytest.raises(NonFiniteError, match="non-finite"):
        probe_covariances(make_kernel(MildTheta(0.3, 0.7, 0.5)), plan)
    with pytest.raises(NonFiniteError):
        classify_stationarity(make_kernel(MildTheta(0.3, 0.7, 0.5)),
                              plan=plan)


def test_a_non_finite_increment_covariance_names_its_boxes():
    # in a stack of box pairs, the first pair whose covariance overflows is
    # named, with its corners broadcast to the stack
    kernel = make_kernel(FBS((0.9, 0.9)))
    hi = np.array([[1.0, 2.0], [1e300, 1e300], [2e300, 2e300]])
    with pytest.raises(NonFiniteError, match=r"boxes \[\[0\. 0\.\], "
                                             r"\[1\.e\+300 1\.e\+300\]\]"):
        increments._increment_covs(kernel, np.zeros(2), hi, np.zeros(2), hi)


def test_increment_covariances_take_only_the_table_route(monkeypatch):
    # no covariance at corner points is evaluated: with the point evaluator
    # disabled, increment_cov and the classifier give the same bits
    kernel = make_kernel(Strict2D(0.3, 0.7, 0.5))
    r1, r2 = Rectangle((1.0, 0.5), (2.0, 3.0)), Rectangle((0.5, 1.0), (2.5, 2.0))
    plan = ProbePlan.default(2, n_pairs=3, n_shifts=2, seed=5)
    want = increment_cov(kernel, r1, r2), probe_covariances(kernel, plan)

    def refused(*args):
        raise AssertionError("a corner covariance was evaluated")

    monkeypatch.setattr(kernels, "cov_terms_array", refused)
    assert increment_cov(kernel, r1, r2) == want[0]
    np.testing.assert_array_equal(probe_covariances(kernel, plan), want[1])
    assert classify_stationarity(kernel, plan=plan).require_label() is \
        StationarityClass.STRICT_WIDE


def test_classify_without_a_plan_probes_in_the_kernel_dimension():
    # the default plan takes its dimension from the kernel's H
    for spec in (FBS((0.3, 0.6, 0.8)), FBS((0.4,)), MildTheta(0.3, 0.7, 0.5)):
        kernel = make_kernel(spec)
        report = classify_stationarity(kernel)
        assert report.rows and all(
            len(row["u1"]) == len(row["u2"]) == len(row["h"]) == kernel.n
            for row in report.rows)
        assert report.require_label() is kernel.claimed_class


def _mp_double_difference(mp, name, h, lo1, hi1, lo2, hi2):
    """sum +-phi(t, s) of the letter a, b or arho over the corner pairs,
    each letter in its corner form (``rectfield.kernels`` module docstring)
    at the working precision; returns the value and the lags' scale
    sum |d|^{2H}."""
    h = mp.mpf(h)
    total = 0
    for t, s, sign in ((hi2, hi1, 1), (lo2, hi1, -1), (hi2, lo1, -1),
                       (lo2, lo1, 1)):
        t, s = mp.mpf(t), mp.mpf(s)
        d = t - s
        if h == 0.5:
            def xlogx(x):
                return x * mp.log(abs(x)) if x else mp.mpf(0)
            a = 2 * min(t, s)
            b = 2 / mp.pi * (xlogx(t) - xlogx(s) - xlogx(d))
        else:
            a = t**(2 * h) + s**(2 * h) - abs(d)**(2 * h)
            b = mp.tan(mp.pi * h) * (-t**(2 * h) + s**(2 * h)
                                     + mp.sign(d) * abs(d)**(2 * h))
        if name == "arho":
            m = max(t, s)**(2 * h)
            a = a * (t**(2 * h) - s**(2 * h)) / m if m else mp.mpf(0)
        total += sign * (b if name == "b" else a)
    lags = (mp.mpf(hi2) - hi1, mp.mpf(lo2) - hi1, mp.mpf(hi2) - lo1,
            mp.mpf(lo2) - lo1)
    return total, sum(abs(x)**(2 * h) for x in lags)


@pytest.mark.parametrize("h", [0.1, 0.3, 0.46, 0.499, 0.5, 0.5 + 1e-9, 0.52,
                               0.7, 0.9])
def test_lag_forms_match_mpmath_at_far_anchors(h):
    # the corner sum lost digits like (shift / box)^{2H}: 9e-5 relative at
    # shift 1e6 for strict2d at (0.3, 0.7); the lags keep the boxes' scale
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(round(h * 1e9))
    compared = 0
    for shift in (0.0, 1.0, 1e2, 1e4, 1e6):
        for _ in range(8):
            lo1 = shift + rng.uniform(1.5, 3.5)
            lo2 = lo1 + rng.uniform(-1.5, 1.5)
            hi1, hi2 = lo1 + rng.uniform(0.05, 2.0), lo2 + rng.uniform(0.05, 2.0)
            got = _double_differences(h, lo1, hi1, lo2, hi2, {"a", "b"})
            for name in ("a", "b"):
                with mp.workdps(50):
                    want, scale = _mp_double_difference(mp, name, h, lo1,
                                                        hi1, lo2, hi2)
                if abs(want) < 1e-3 * scale:   # a near-zero difference
                    assert abs(got[name] - float(want)) <= 1e-13 * scale
                    continue
                compared += 1
                assert abs(got[name] - float(want)) <= 1e-13 * abs(want), \
                    (name, lo1, hi1, lo2, hi2)
    assert compared >= 60
    # a box with itself: the lags are (0, -u, u, 0), whatever the anchor
    for shift in (0.0, 1e6):
        got = _double_differences(h, shift + 1.0, shift + 3.0, shift + 1.0,
                                  shift + 3.0, {"a", "b"})
        assert got["a"] == pytest.approx(2.0 * 2.0**(2 * h), rel=1e-15)
        assert got["b"] == 0.0


@pytest.mark.parametrize("shift", [0.0, 1.0, 1e2, 1e4, 1e6])
def test_half_double_difference_of_a_is_twice_the_overlap(shift):
    # at H = 1/2, a = 2 min(t, s), so its double difference is twice the
    # overlap of the two intervals, 0 for disjoint or abutting ones; the sum
    # over the rounded lags left noise of the anchor's ulp there
    rng = np.random.default_rng(round(shift) + 3)
    lo1, lo2 = shift + rng.uniform(0.0, 3.0, size=(2, 200))
    hi1, hi2 = lo1 + rng.uniform(0.05, 2.0, 200), lo2 + rng.uniform(0.05, 2.0, 200)
    lo2[:40] = hi1[:40]                        # abutting
    lo2[40:80] = hi1[40:80] + rng.uniform(0.0, 1.0, 40)   # disjoint
    hi2[:80] = lo2[:80] + 1.0
    got = _double_differences(0.5, lo1, hi1, lo2, hi2, {"a"})["a"]
    overlap = np.maximum(0.0, np.minimum(hi1, hi2) - np.maximum(lo1, lo2))
    assert np.array_equal(got, 2.0 * overlap)
    assert (got[:80] == 0.0).all() and (got[80:] > 0.0).any()


@pytest.mark.parametrize("spec", [MildTheta(0.3, 0.7, 0.8),
                                  MildTheta(0.8, 0.2, -0.5),
                                  MildTheta(0.5, 0.52, 0.5), YHalf(0.9)],
                         ids=repr)
def test_mild_increment_covariances_match_mpmath_at_far_anchors(spec):
    # a rho has no lag form and cancels over its own four corners, one
    # coordinate at a time: its double difference is 2.5e-9 off at anchors
    # near 1e6, but the mild term it enters decays like 1/shift^2 there
    mp = pytest.importorskip("mpmath")
    kernel = make_kernel(spec)
    H, theta = kernel.hurst, spec.canonical().theta
    rng = np.random.default_rng(7)
    for shift in (0.0, 1e2, 1e4, 1e6):
        for _ in range(4):
            lo = shift + rng.uniform(0.0, 2.0, 2)
            r1 = Rectangle(lo, lo + rng.uniform(0.05, 2.0, 2))
            r2 = Rectangle(lo, lo + rng.uniform(0.05, 2.0, 2))
            with mp.workdps(50):
                want = mp.mpf(0.25) * mp.fprod(_mp_double_difference(
                    mp, "a", H[j], r1.s[j], r1.t[j], r2.s[j], r2.t[j])[0]
                    for j in range(2))
                want += mp.mpf(theta) / 16 * mp.fprod(_mp_double_difference(
                    mp, "arho", H[j], r1.s[j], r1.t[j], r2.s[j], r2.t[j])[0]
                    for j in range(2))
            got = increment_cov(kernel, r1, r2)
            assert abs(got - float(want)) <= 1e-14 * abs(float(want))


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


_CLASSIFY_CASES = [
    FBS((0.3, 0.7)), FBS((0.5, 0.5)), FBS((0.3, 0.6, 0.8)),
    Strict2D(0.3, 0.7, 0.5), Strict2D(0.5, 0.5, -0.4), ZHalf(1.0),
    MildTheta(0.3, 0.7, 0.5), MildTheta(0.5, 0.7, -0.9), YHalf(1.0),
    MovingPair(0.5, 0.5, 0.6, 0.8),
    StrictGeneral((0.3, 0.5, 0.8), StrictWeights(
        {(1, 1, 1): 0.2, (-1, -1, -1): 0.2, (1, 1, -1): 0.05,
         (-1, -1, 1): 0.05, (1, -1, 1): 0.15, (-1, 1, -1): 0.15,
         (-1, 1, 1): 0.1, (1, -1, -1): 0.1})),
]


@pytest.mark.parametrize("case", _CLASSIFY_CASES, ids=repr)
def test_classify_matches_scalar_corner_loop(case):
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
