"""Lamperti transform, stationary covariances, mild-class criterion."""

import math

import numpy as np
import pytest

import oracle
from rectfield.increments import classify_stationarity
from rectfield.kernels import (
    FBS,
    MildTheta,
    StationarityClass,
    Strict2D,
    YHalf,
    ZHalf,
    make_kernel,
)
from rectfield.lamperti import (
    SelfSimilarityError,
    c_fbs_stationary,
    c_theta,
    lamperti_forward,
    lamperti_inverse,
    mild_criterion_residual,
    self_similarity_residual,
)

# reference values from a 50-digit evaluation
C_FBS_03_AT_1 = 0.53278608260612224867
C_THETA_0307_1M1 = 0.35363341527086945225


def test_forward_at_origin():
    C = lamperti_forward(make_kernel(FBS((0.3, 0.7))))
    assert C((0.0, 0.0)) == pytest.approx(1.0, rel=1e-14)


def test_forward_fbs_matches_closed_form():
    H = (0.3, 0.7)
    C = lamperti_forward(make_kernel(FBS(H)))
    for v1 in (-2.0, -0.3, 0.0, 1.0, 2.5):
        for v2 in (-1.5, 0.4, 3.0):
            assert C((v1, v2)) == pytest.approx(
                c_fbs_stationary(H, (v1, v2)), rel=1e-12, abs=1e-12)


def test_forward_mild_theta_matches_c_theta():
    h1, h2, theta = 0.3, 0.7, 0.8
    C = lamperti_forward(make_kernel(MildTheta(h1, h2, theta)))
    for v1 in (-1.5, 0.2, 2.0):
        for v2 in (-2.0, 0.9):
            assert C((v1, v2)) == pytest.approx(
                c_theta(h1, h2, theta, (v1, v2)), rel=1e-12, abs=1e-12)


def test_forward_rejects_non_self_similar():
    base = make_kernel(FBS((0.5, 0.5)))
    broken = type(base)(
        spec=base.spec, claimed_class=base.claimed_class,
        batch=lambda s, t: base.batch(s, t) + 0.01)
    with pytest.raises(SelfSimilarityError):
        lamperti_forward(broken)
    assert self_similarity_residual(base) < 1e-12


def test_self_similarity_residual_keeps_the_trial_by_trial_draws():
    # one batch call per side; the draws are those of a loop that takes s, t
    # and a in turn for each trial, here evaluated by the scalar oracle
    spec = MildTheta(0.3, 0.7, 0.5)
    base = make_kernel(spec)
    broken = type(base)(spec=spec, claimed_class=base.claimed_class,
                        batch=lambda s, t: base.batch(s, t) + 0.01)
    ev = oracle.evaluator(spec)
    rng = np.random.default_rng(7041)
    worst = 0.0
    for _ in range(10):
        s, t, a = (rng.uniform(0.2, 2.0, 2) for _ in range(3))
        lhs = ev(a * s, a * t) + 0.01
        rhs = math.prod(float(ak) ** (2 * h) for ak, h in zip(a, spec.hurst)) \
            * (ev(s, t) + 0.01)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-12))
    assert self_similarity_residual(broken) == pytest.approx(worst, rel=1e-12)


def test_forward_rejects_a_nan_residual():
    base = make_kernel(FBS((0.3, 0.7)))
    nan = type(base)(spec=base.spec, claimed_class=base.claimed_class,
                     batch=lambda s, t: base.batch(s, t) * np.nan)
    with pytest.raises(SelfSimilarityError):
        lamperti_forward(nan)


def test_inverse_examples():
    H = (0.5, 0.5)
    C = lamperti_forward(make_kernel(FBS(H)))
    assert lamperti_inverse(C, H, (2.0, 2.0), (2.0, 2.0)) == pytest.approx(4.0)
    assert lamperti_inverse(C, H, (0.0, 1.0), (1.0, 1.0)) == 0.0


@pytest.mark.parametrize("spec", [
    FBS((0.3, 0.7)),
    Strict2D(0.3, 0.7, 0.6),
    MildTheta(0.25, 0.6, -0.7),
    YHalf(1.0),
    ZHalf(0.8),
], ids=lambda s: repr(s))
def test_roundtrip(spec):
    kernel = make_kernel(spec)
    C = lamperti_forward(kernel)
    H = spec.hurst
    rng = np.random.default_rng(21)
    for _ in range(100):
        s = rng.uniform(0.1, 3.0, 2)
        t = rng.uniform(0.1, 3.0, 2)
        want = kernel(s, t)
        got = lamperti_inverse(C, H, s, t)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_c_fbs_stationary_values():
    assert c_fbs_stationary((0.4, 0.6), (0.0, 0.0)) == pytest.approx(1.0)
    # H = 1/2: cosh(v/2) - |sinh(v/2)| = e^{-|v|/2}
    for v in (-3.0, -0.7, 0.2, 4.0):
        assert c_fbs_stationary((0.5,), (v,)) == pytest.approx(
            math.exp(-abs(v) / 2), rel=1e-12)
    assert c_fbs_stationary((0.3,), (1.0,)) == pytest.approx(
        C_FBS_03_AT_1, rel=1e-13)


def test_c_fbs_stationary_decay():
    for H in (0.3, 0.5, 0.7):
        assert c_fbs_stationary((H,), (30.0,)) < 1e-3
    # extreme indices decay like e^{-min(H, 1-H)|v|}, so go further out
    for H in (0.1, 0.9):
        assert c_fbs_stationary((H,), (150.0,)) < 1e-3


def test_c_theta_examples():
    H1, H2 = 0.3, 0.7
    v = (1.2, -0.8)
    assert c_theta(H1, H2, 0.0, v) == pytest.approx(
        c_fbs_stationary((H1, H2), v), rel=1e-14)
    assert c_theta(H1, H2, 0.9, (0.0, 2.0)) == pytest.approx(
        c_fbs_stationary((H1, H2), (0.0, 2.0)), rel=1e-14)
    assert c_theta(0.3, 0.7, 1.0, (1.0, -1.0)) == pytest.approx(
        C_THETA_0307_1M1, rel=1e-13)


def test_mild_criterion_fbs_vanishes():
    H = (0.35, 0.8)
    C = lambda v: c_fbs_stationary(H, v)   # noqa: E731
    for v1 in (-2.0, 0.3, 1.7):
        for v2 in (-1.0, 0.8, 2.4):
            assert mild_criterion_residual(C, H, (v1, v2)) == \
                pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("theta", [-1.0, -0.5, 0.5, 1.0])
@pytest.mark.parametrize("H", [(0.3, 0.7), (0.5, 0.5), (0.25, 0.25)])
def test_mild_criterion_c_theta_grid(H, theta):
    C = lambda v: c_theta(H[0], H[1], theta, v)   # noqa: E731
    grid = np.linspace(-3.0, 3.0, 21)
    lags = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    assert np.max(np.abs(mild_criterion_residual(C, H, lags))) <= 1e-12


def test_mild_criterion_detects_even_perturbation():
    H = (0.5, 0.5)

    def bumped(v):
        return (c_fbs_stationary(H, v)
                + 0.1 * np.exp(-np.abs(v[..., 0]) - np.abs(v[..., 1])))

    v = (0.7, -1.1)
    want = 4 * 0.1 * math.exp(-abs(v[0]) - abs(v[1]))
    assert mild_criterion_residual(bumped, H, v) == pytest.approx(
        want, rel=1e-12)


def test_mild_criterion_consistent_with_classifier():
    # a covariance passing the criterion must classify at least MILD_ONLY
    from rectfield.increments import ProbePlan

    h1, h2, theta = 0.3, 0.7, 1.0
    C = lambda v: c_theta(h1, h2, theta, v)   # noqa: E731
    grid = np.linspace(-3.0, 3.0, 9)
    assert max(abs(mild_criterion_residual(C, (h1, h2), (a, b)))
               for a in grid for b in grid) <= 1e-12

    plan = ProbePlan.default(2)
    label = classify_stationarity(
        lambda s, t: lamperti_inverse(C, (h1, h2), s, t),
        plan=plan).require_label()
    assert label in (StationarityClass.MILD_ONLY,
                     StationarityClass.STRICT_WIDE)
    # and the closed-form kernel of the same family agrees
    kernel = make_kernel(MildTheta(h1, h2, theta))
    assert classify_stationarity(kernel, plan=plan).require_label() is label


# --------------------------------------------------------------------------
# The array forms against the scalar oracle, and one call per criterion
# --------------------------------------------------------------------------

# v = 0, both sides of log 2, and the cancellation-free branch (|v| >= 36)
_LAGS = np.array([0.0, 1e-8, 0.3, -0.69, 0.7, -2.5, 10.0, 36.0, -36.0,
                  100.0, 700.0, -700.0])
_LAG_GRID = np.stack(np.meshgrid(_LAGS, _LAGS, indexing="ij"), axis=-1)


def _assert_matches_oracle(got, want):
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


@pytest.mark.parametrize("H", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_c_fbs_stationary_array_matches_the_scalar_oracle(H):
    want = np.array([oracle.c_fbs_stationary((H,), (v,)) for v in _LAGS])
    _assert_matches_oracle(c_fbs_stationary((H,), _LAGS[:, None]), want)
    for v, w in zip(_LAGS, want):   # one lag is one number
        got = c_fbs_stationary((H,), (v,))
        assert isinstance(got, np.float64)
        assert abs(got - w) <= 1e-14 * abs(w)


@pytest.mark.parametrize("H", [(0.3, 0.7), (0.5, 0.5), (0.1, 0.9)])
def test_c_fbs_stationary_and_c_theta_grids_match_the_scalar_oracle(H):
    want = np.array([[oracle.c_fbs_stationary(H, v) for v in row]
                     for row in _LAG_GRID])
    _assert_matches_oracle(c_fbs_stationary(H, _LAG_GRID), want)
    for theta in (-1.0, 0.5, 1.0):
        want = np.array([[oracle.c_theta(H[0], H[1], theta, v) for v in row]
                         for row in _LAG_GRID])
        _assert_matches_oracle(c_theta(H[0], H[1], theta, _LAG_GRID), want)
        assert isinstance(c_theta(H[0], H[1], theta, (0.3, -0.7)), np.float64)


@pytest.mark.parametrize("spec", [FBS((0.3, 0.7)), MildTheta(0.5, 0.5, 0.8),
                                  MildTheta(0.25, 0.6, -0.7)], ids=repr)
def test_lamperti_inverse_array_matches_the_scalar_oracle(spec):
    H = spec.hurst
    C = lamperti_forward(make_kernel(spec))
    rng = np.random.default_rng(8)
    S = rng.uniform(0.0, 3.0, (40, 2))
    T = rng.uniform(0.0, 3.0, (40, 2))
    T[::5] = S[::5]                                  # s = t
    S[::7, 0] = 0.0                                  # boundary points
    T[3::9, 1] = 0.0
    got = lamperti_inverse(C, H, S[:, None], T[None])
    want = np.array([[oracle.lamperti_inverse(C, H, s, t) for t in T]
                     for s in S])
    assert got.shape == want.shape == (40, 40)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))
    assert np.all(got[::7] == 0.0) and np.all(got[:, 3::9] == 0.0)
    assert isinstance(lamperti_inverse(C, H, S[1], T[1]), np.float64)
    with pytest.raises(ValueError):
        lamperti_inverse(C, H, (1.0, -1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        lamperti_inverse(C, H, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))


_GRID_21 = np.stack(np.meshgrid(np.linspace(-3.0, 3.0, 21),
                               np.linspace(-3.0, 3.0, 21), indexing="ij"),
                   axis=-1)


@pytest.mark.parametrize("lags", [np.array([0.7, -1.1]), _GRID_21],
                         ids=["one lag", "21x21 grid"])
def test_mild_criterion_calls_C_once(lags):
    H, theta = (0.3, 0.7), 0.8
    calls = []

    def counted(v):
        calls.append(v.shape)
        return c_theta(H[0], H[1], theta, v)

    got = mild_criterion_residual(counted, H, lags)
    assert calls == [lags.shape[:-1] + (4, 2)]
    assert got.shape == lags.shape[:-1]
    # the flips and the sum are those of the scalar loop
    flat = lags.reshape(-1, 2)
    want = [oracle.mild_criterion_residual(counted, H, v) for v in flat]
    assert np.all(np.abs(got.reshape(-1) - want) <= 1e-14)


_H = (0.3, 0.7)


def _EXP_C(v):
    """A covariance that does not check its lags itself."""
    return np.exp(-np.abs(v).sum(axis=-1))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("call", [
    lambda x: c_fbs_stationary(_H, (x, 1.0)),
    lambda x: c_theta(0.3, 0.7, 0.5, (1.0, x)),
    lambda x: mild_criterion_residual(_EXP_C, _H, (x, 0.5)),
    lambda x: lamperti_inverse(_EXP_C, _H, (x, 1.0), (1.0, 2.0)),
    lambda x: lamperti_inverse(_EXP_C, _H, (1.0, 1.0), (1.0, x)),
], ids=["c_fbs_stationary", "c_theta", "mild_criterion_residual",
        "lamperti_inverse s", "lamperti_inverse t"])
def test_non_finite_lags_and_points_raise(call, bad):
    # without the check, an infinite coordinate gives NaN, not an error
    with pytest.raises(ValueError, match="finite"):
        call(bad)


def test_lamperti_inverse_rejects_points_outside_the_orthant():
    with pytest.raises(ValueError, match="orthant"):
        lamperti_inverse(_EXP_C, _H, (-1.0, 1.0), (1.0, 2.0))


def test_lamperti_inverse_takes_a_bare_callable():
    # a stationary covariance is any callable of lags (..., N) -> (...)
    bare = lambda v: c_theta(0.3, 0.7, 0.5, v)   # noqa: E731
    s = np.array([[0.5, 1.0], [1.0, 2.0], [0.0, 1.0]])
    t = np.array([[1.0, 1.5], [2.0, 0.5], [1.0, 1.0]])
    inner = (np.prod((t[:2] * s[:2]) ** np.array([0.3, 0.7]), axis=-1)
             * bare(np.log(t[:2] / s[:2])))
    np.testing.assert_array_equal(lamperti_inverse(bare, (0.3, 0.7), s, t),
                                  np.append(inner, 0.0))
