"""Moving-average kernels and their quadrature covariances."""

import math

import numpy as np
import pytest

from rectfield.increments import Rectangle, increment_cov
from rectfield.kernels import (MovingPair, cov_fbs, make_kernel,
                               moving_constraint_residual)
from rectfield import movingavg
from rectfield.movingavg import (
    cov_from_ma,
    cov_moving_pair,
    f_kernel,
    log_ratio,
    ma_kernel_general,
    ma_kernel_half,
    make_ma_kernel,
    p_kernel,
)
from rectfield.quadrature import check_ma_transform


def _uniform_weights(H, n=2):
    mass = math.prod(math.gamma(1 + 2 * h) * math.sin(math.pi * h) / math.pi
                     for h in H)
    from itertools import product
    return {e: (mass / 2 ** n, 0.0) for e in product((1, -1), repeat=n)}


def test_kernel_parts_support():
    # p lives on x < t, f on x > 0
    assert p_kernel(0.7, 1.0, 2.0) == 0.0
    assert p_kernel(0.7, 1.0, -1.0) == pytest.approx(2.0 ** 0.2 - 1.0)
    assert f_kernel(0.7, 1.0, -0.5) == 0.0
    assert f_kernel(0.7, 1.0, 2.0) == pytest.approx(1.0 - 2.0 ** 0.2)


def test_general_kernel_future_support():
    # x beyond t in every coordinate: only the future parts contribute
    H = (0.7, 0.9)
    W = _uniform_weights(H)
    val = ma_kernel_general(H, W, (1.0, 1.0), (2.0, 3.0))
    assert np.isfinite(val.real) and np.isfinite(val.imag)
    projected = math.prod(p_kernel(h, 1.0, x) for h, x in zip(H, (2.0, 3.0)))
    assert projected == 0.0


def test_general_kernel_one_dimensional_reduction():
    # single coordinate matches the half-line Fourier transform identity
    H = 0.3
    mass = math.gamma(1 + 2 * H) * math.sin(math.pi * H) / math.pi
    W = {(1,): (mass / 2, 0.4), (-1,): (mass / 2, -0.4)}
    for t, x in ((1.0, -0.5), (1.0, 0.3), (2.0, 2.5)):
        got = ma_kernel_general((H,), W, (t,), (x,))
        want = 0.0 + 0.0j
        for e, (k, phi) in W.items():
            closed = check_ma_transform(H, e[0], t, x).closed
            want += math.sqrt(k) * np.exp(1j * phi) * closed / math.sqrt(2 * math.pi)
        assert got == pytest.approx(want, rel=1e-12)


def test_general_kernel_symmetric_weights_real():
    # zero phases and mirrored weights leave a real kernel
    H = (0.7, 0.9)
    W = _uniform_weights(H)
    rng = np.random.default_rng(41)
    for _ in range(10):
        t = rng.uniform(0.5, 2.0, 2)
        x = rng.uniform(-2.0, 3.0, 2)
        val = ma_kernel_general(H, W, t, x)
        assert abs(val.imag) <= 1e-12 * max(abs(val), 1.0)


def test_general_kernel_singular_marker():
    H = (0.3, 0.4)  # both below 1/2: power singularities on {0, t}
    W = _uniform_weights(H)
    val = ma_kernel_general(H, W, (1.0, 1.0), (0.0, 0.5))
    assert math.isinf(abs(val))


def test_general_kernel_rejects_half():
    with pytest.raises(ValueError):
        ma_kernel_general((0.5, 0.7), _uniform_weights((0.5, 0.7)), (1, 1),
                          (0.5, 0.5))


def test_half_kernel_examples():
    W = {e: (1 / (4 * math.pi ** 2), 0.0)
         for e in ((1, 1), (1, -1), (-1, 1), (-1, -1))}
    # inside the box the mirrored sign vectors cancel every log term:
    # sum_e (pi + i e1 L1)(pi + i e2 L2) = 4 pi^2, so the kernel value is
    # sqrt(K) * 4 pi^2 / (2 pi) = 1 exactly
    val = ma_kernel_half(W, (1.0, 1.0), (0.3, 0.4))
    assert val == pytest.approx(complex(1.0, 0.0), rel=1e-12)
    # |t - x| = |x| kills the log factor of that coordinate
    assert log_ratio(1.0, 0.5) == 0.0
    # singular markers on the log hyperplanes
    assert math.isinf(abs(ma_kernel_half(W, (1.0, 1.0), (0.0, 0.4))))


def test_half_kernel_brownian_indicator():
    # single sign pair, one dimension: pi * indicator + i log ratio
    W = {(1,): (1 / math.pi, 0.0), (-1,): (1 / math.pi, 0.0)}
    val = ma_kernel_half(W, (1.0,), (0.5,))
    # both sign vectors contribute pi * indicator; imaginary parts cancel
    want = 2 * math.sqrt(1 / math.pi) * math.pi / math.sqrt(2 * math.pi)
    assert val == pytest.approx(complex(want, 0.0), rel=1e-12)


def test_weight_table_validation():
    with pytest.raises(ValueError, match="antisymmetry"):
        make_ma_kernel((0.3, 0.7), {
            (1, 1): (0.1, 0.2), (-1, -1): (0.1, 0.3),
            (1, -1): (0.1, 0.0), (-1, 1): (0.1, 0.0)})
    with pytest.raises(ValueError, match="negative"):
        make_ma_kernel((0.3, 0.7), {
            (1, 1): (-0.1, 0.0), (-1, -1): (-0.1, 0.0),
            (1, -1): (0.1, 0.0), (-1, 1): (0.1, 0.0)})
    with pytest.raises(ValueError, match="mixed"):
        make_ma_kernel((0.5, 0.7), _uniform_weights((0.5, 0.7)))


def test_cov_from_ma_uniform_weights_is_fbs():
    H = (0.3, 0.7)
    kernel = make_ma_kernel(H, _uniform_weights(H))
    rng = np.random.default_rng(42)
    for _ in range(5):
        s = rng.uniform(0.3, 2.0, 2)
        t = rng.uniform(0.3, 2.0, 2)
        got = cov_from_ma(kernel, s, t)
        assert got == pytest.approx(cov_fbs(H, s, t), abs=1e-6)
        assert cov_from_ma(kernel, t, s) == pytest.approx(got, abs=1e-8)


def test_cov_from_ma_half_weights_is_brownian_sheet():
    W = {e: (1 / (4 * math.pi ** 2), 0.0)
         for e in ((1, 1), (1, -1), (-1, 1), (-1, -1))}
    kernel = make_ma_kernel((0.5, 0.5), W)
    got = cov_from_ma(kernel, (1.0, 2.0), (2.0, 1.0))
    assert got == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("H", [0.05, 0.95])
def test_moving_pair_extreme_hurst(H):
    # slowly decaying tails (|x|^{2H-3} with H near 1) and strong endpoint
    # singularities (H near 0) must both stay within the covariance contract
    spec = MovingPair(H, H, 1.0, 0.0)
    got = cov_moving_pair(spec, (1.0, 1.0), (2.0, 1.5))
    assert abs(got - cov_fbs((H, H), (1.0, 1.0), (2.0, 1.5))) <= 1e-3
    assert abs(cov_moving_pair(spec, (1, 1), (1, 1)) - 1.0) <= 1e-3


def test_moving_pair_reproduces_fbs():
    spec = MovingPair(0.3, 0.7, 1.0, 0.0)
    rng = np.random.default_rng(43)
    for _ in range(20):
        s = rng.uniform(0.3, 2.5, 2)
        t = rng.uniform(0.3, 2.5, 2)
        got = cov_moving_pair(spec, s, t)
        assert abs(got - cov_fbs((0.3, 0.7), s, t)) <= 1e-3


def test_moving_pair_unit_variance_on_constraint():
    sin2 = math.sin(math.pi * 0.3) * math.sin(math.pi * 0.7)
    for d0 in (1.0, 0.4, -0.6):
        d1 = -d0 * sin2 + math.sqrt(d0 * d0 * (sin2 ** 2 - 1.0) + 1.0)
        spec = MovingPair(0.3, 0.7, d0, d1)
        got = cov_moving_pair(spec, (1.0, 1.0), (1.0, 1.0))
        assert abs(got - 1.0) <= 1e-3


def test_moving_pair_half_unit_variance():
    for d0, d1 in ((0.0, 1.0), (1.0, 0.0), (0.6, 0.8)):
        spec = MovingPair(0.5, 0.5, d0, d1)
        got = cov_moving_pair(spec, (1.0, 1.0), (1.0, 1.0))
        assert abs(got - 1.0) <= 1e-3


def test_moving_pair_kernel_self_similarity():
    kernel = make_kernel(MovingPair(0.3, 0.7, 1.0, 0.0))
    s, t = np.array([0.8, 1.2]), np.array([1.5, 0.9])
    a = np.array([1.4, 0.7])
    lhs = kernel(a * s, a * t)
    rhs = a[0] ** 0.6 * a[1] ** 1.4 * kernel(s, t)
    assert lhs == pytest.approx(rhs, rel=1e-2)


def test_moving_pair_increment_stationarity():
    sin2 = math.sin(math.pi * 0.3) * math.sin(math.pi * 0.7)
    d0 = 0.5
    d1 = -d0 * sin2 + math.sqrt(d0 * d0 * (sin2 ** 2 - 1.0) + 1.0)
    kernel = make_kernel(MovingPair(0.3, 0.7, d0, d1))
    u1, u2 = (0.7, 1.1), (1.3, 0.6)
    base = increment_cov(kernel, Rectangle((0, 0), u1), Rectangle((0, 0), u2))
    for h in ((0.9, 0.4), (0.2, 1.5)):
        shifted = increment_cov(
            kernel,
            Rectangle(h, (h[0] + u1[0], h[1] + u1[1])),
            Rectangle(h, (h[0] + u2[0], h[1] + u2[1])))
        assert shifted == pytest.approx(base, abs=1e-2)


def _constraint_pairs(h1, h2):
    """(d0, d1) on the unit-variance curve, both roots where they differ."""
    c = 0.0 if h1 == 0.5 else math.sin(math.pi * h1) * math.sin(math.pi * h2)
    out = []
    for d0 in (1.0, 0.4, -0.6):
        root = math.sqrt(d0 * d0 * (c * c - 1.0) + 1.0)
        out += [(d0, -d0 * c + root), (d0, -d0 * c - root)]
    return out


@pytest.mark.parametrize("H", [(0.3, 0.7), (0.25, 0.25), (0.2, 0.85),
                               (0.5, 0.5)])
def test_moving_pair_closed_form_matches_quadrature(H):
    # the quadrature inner products are the independent oracle of the
    # closed form Strict2D(H1, H2, 2 d0 d1 cos(pi H1) cos(pi H2))
    rng = np.random.default_rng(44)
    points = [(rng.uniform(0.2, 2.5, 2), rng.uniform(0.2, 2.5, 2))
              for _ in range(3)] + [((1.0, 1.0), (1.0, 1.0))]
    for d0, d1 in _constraint_pairs(*H):
        spec = MovingPair(H[0], H[1], d0, d1)
        kernel = make_kernel(spec)
        for s, t in points:
            assert abs(kernel(s, t) - cov_moving_pair(spec, s, t)) <= 1e-8


def test_moving_pair_kernel_runs_no_quadrature():
    caches = (movingavg._power_inner, movingavg._log_inner_il,
              movingavg._log_inner_ll)
    before = [f.cache_info().misses for f in caches]
    rng = np.random.default_rng(45)
    for H in ((0.3, 0.7), (0.5, 0.5)):
        d0, d1 = _constraint_pairs(*H)[1]
        kernel = make_kernel(MovingPair(H[0], H[1], d0, d1))
        for _ in range(20):
            kernel(rng.uniform(0.1, 3.0, 2), rng.uniform(0.1, 3.0, 2))
    assert [f.cache_info().misses for f in caches] == before


def test_moving_constraint_residual():
    def passed(*args):
        return abs(moving_constraint_residual(*args)) <= 1e-12

    assert passed(0.3, 0.7, 1.0, 0.0)
    assert passed(0.3, 0.7, 0.0, 1.0)
    assert passed(0.25, 0.25, 1 / math.sqrt(3), 1 / math.sqrt(3))
    assert passed(0.5, 0.5, 0.6, 0.8)
    assert not passed(0.5, 0.5, 0.6, 0.9)
    assert not passed(0.3, 0.7, 1.0, 1.0)
    assert moving_constraint_residual(0.3, 0.7, 1.0, 1.0) == pytest.approx(
        1 + 2 * math.sin(math.pi * 0.3) * math.sin(math.pi * 0.7), rel=1e-12)
    with pytest.raises(ValueError):
        moving_constraint_residual(0.5, 0.7, 1.0, 0.0)


@pytest.mark.parametrize("s, t", [((math.inf, 1.0), (1.0, 1.0)),
                                  ((1.0, 1.0), (1.0, math.nan)),
                                  ((1.0, -0.5), (1.0, 1.0))],
                         ids=["inf s", "nan t", "negative s"])
@pytest.mark.parametrize("cov", [
    lambda s, t: cov_moving_pair(MovingPair(0.3, 0.7, 1.0, 0.0), s, t),
    lambda s, t: cov_from_ma(make_ma_kernel((0.3, 0.7),
                                            _uniform_weights((0.3, 0.7))),
                             s, t),
], ids=["cov_moving_pair", "cov_from_ma"])
def test_quadrature_covariances_reject_points_outside_the_orthant(cov, s, t):
    # without the check, the quadrature gives a number at s = (inf, 1)
    with pytest.raises(ValueError, match="finite"):
        cov(s, t)
