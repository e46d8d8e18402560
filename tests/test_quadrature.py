"""Quadrature engine and the integral-identity oracles."""

import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
import rectfield
from rectfield import quadrature
from rectfield.quadrature import (
    OracleCheck,
    QuadratureError,
    check_increment_integral,
    check_ma_transform,
    identity_sweep,
    integrate_1d,
    oscillatory_power_integral,
)


def test_integrate_polynomial():
    res = integrate_1d(lambda x: x, 0.0, 1.0, tol=1e-12)
    assert res.value == pytest.approx(0.5, abs=1e-13)


def test_integrate_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(quadrature, "BUDGET", 40)
    with pytest.raises(QuadratureError, match="budget"):
        integrate_1d(lambda x: math.sin(50.0 / (x + 1e-3)), 0.0, 1.0,
                     tol=1e-13)


def test_integrate_bad_range():
    with pytest.raises(ValueError):
        integrate_1d(lambda x: x, 1.0, 1.0)


# ---------------------------------------------------------------- catalog

def test_cosine_minus_one_power():
    # int_0^inf (cos x - 1)/x^{3/2} dx = Gamma(-1/2) sin(3 pi/4) = -sqrt(2 pi)
    res = oscillatory_power_integral(1.5, cos_terms=[(1.0, 1.0)], const=-1.0)
    assert res.value.real == pytest.approx(-math.sqrt(2 * math.pi), abs=1e-9)
    assert res.value.imag == 0.0


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_cosine_power(alpha):
    res = oscillatory_power_integral(alpha, cos_terms=[(1.0, 1.0)])
    want = math.gamma(1 - alpha) * math.sin(math.pi * alpha / 2)
    assert res.value.real == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.3])
def test_sine_power(alpha):
    res = oscillatory_power_integral(alpha, sin_terms=[(1.0, 1.0)])
    if alpha == 1.0:
        want = math.pi / 2
    else:
        want = math.gamma(1 - alpha) * math.cos(math.pi * alpha / 2)
    assert res.value.imag == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("a,b", [(1.0, 2.0), (0.5, 10.0), (3.0, 7.0)])
def test_log_ratio_of_cosines(a, b):
    # int_0^inf (cos(a x) - cos(b x))/x dx = log(b/a)
    res = oscillatory_power_integral(1.0, cos_terms=[(1.0, a), (-1.0, b)])
    assert res.value.real == pytest.approx(math.log(b / a), abs=1e-8)


def test_high_frequency_sine():
    for omega in (5.0, 10.0):
        res = oscillatory_power_integral(1.0, sin_terms=[(1.0, omega)])
        assert res.value.imag == pytest.approx(math.pi / 2, abs=1e-8)


def test_divergent_combinations_raise():
    with pytest.raises(QuadratureError):
        oscillatory_power_integral(1.5, cos_terms=[(1.0, 1.0)], const=1.0)
    with pytest.raises(QuadratureError):
        oscillatory_power_integral(0.5, const=1.0)


# ---------------------------------------------------------------- identities

def test_increment_integral_unit_point():
    # s = t = 1 collapses to pi / (Gamma(1+2H) sin(pi H)), purely real
    for H in (0.1, 0.3, 0.7, 0.9):
        chk = check_increment_integral(H, 1.0, 1.0)
        want = math.pi / (math.gamma(1 + 2 * H) * math.sin(math.pi * H))
        assert chk.closed == pytest.approx(want, rel=1e-13)
        assert abs(chk.closed.imag) < 1e-13
        assert chk.abs_error <= 1e-8


def test_increment_integral_half_unit_point():
    chk = check_increment_integral(0.5, 1.0, 1.0)
    assert chk.closed == pytest.approx(complex(math.pi, 0.0), abs=1e-13)
    assert chk.abs_error <= 1e-8


def test_increment_integral_half_log_part():
    chk = check_increment_integral(0.5, 1.0, 2.0)
    assert chk.closed.real == pytest.approx(math.pi, abs=1e-13)
    assert chk.closed.imag == pytest.approx(2 * math.log(2.0), abs=1e-13)
    assert chk.abs_error <= 1e-8


def test_increment_integral_diagonal_is_real():
    for s in (0.5, 2.0):
        chk = check_increment_integral(0.3, s, s)
        assert abs(chk.numeric.imag) < 1e-9
        assert abs(chk.closed.imag) < 1e-13


def test_increment_integral_negative_arguments():
    for H in (0.3, 0.7):
        for s, t in ((-1.0, 2.0), (1.5, -0.5)):
            chk = check_increment_integral(H, s, t)
            assert chk.abs_error <= 1e-8, (H, s, t)
    chk = check_increment_integral(0.5, -1.0, 2.0)
    assert chk.abs_error <= 1e-8


@pytest.mark.parametrize("H", [0.0, 1.0, -0.2, 1.5, math.nan])
def test_oracles_reject_h_outside_the_unit_interval(H):
    with pytest.raises(ValueError, match="Hurst index must lie in"):
        check_increment_integral(H, 1.0, 1.0)
    with pytest.raises(ValueError, match="Hurst index must lie in"):
        check_ma_transform(H, 1, 1.0, 0.5)


def test_ma_transform_brackets():
    # one case per support bracket of x relative to [0, t]
    for H in (0.3, 0.7):
        for x in (-0.5, 0.5, 1.5):
            chk = check_ma_transform(H, 1, 1.0, x)
            assert chk.abs_error <= 1e-8, (H, x)


def test_ma_transform_eps_conjugation():
    for H, t, x in ((0.3, 1.0, -0.5), (0.7, 2.0, 0.7)):
        plus = check_ma_transform(H, 1, t, x)
        minus = check_ma_transform(H, -1, t, x)
        assert minus.closed == pytest.approx(np.conj(plus.closed), rel=1e-12)
        assert minus.numeric == pytest.approx(np.conj(plus.numeric), abs=1e-8)


def test_ma_transform_half_midpoint():
    # |t - x| = |x| kills the log part
    chk = check_ma_transform(0.5, 1, 1.0, 0.5)
    assert chk.closed == pytest.approx(complex(math.pi, 0.0), abs=1e-13)
    assert chk.abs_error <= 1e-8


def test_ma_transform_half_outside():
    # x < 0: purely imaginary; quadrature fixes the sign of the log part
    chk = check_ma_transform(0.5, 1, 1.0, -1.0)
    assert chk.closed == pytest.approx(complex(0.0, math.log(2.0)), abs=1e-13)
    assert chk.abs_error <= 1e-8
    flipped = check_ma_transform(0.5, -1, 1.0, -1.0)
    assert flipped.numeric == pytest.approx(np.conj(chk.numeric), abs=1e-8)


@pytest.mark.parametrize("H, eps", [(0.3, 1.7), (0.5, -1.2), (0.3, 0),
                                    (0.7, 2), (0.5, 0.5), (0.3, math.nan)])
def test_ma_transform_rejects_eps_off_plus_or_minus_one(H, eps):
    # int(eps) used to run before the check: 1.7 ran as 1, -1.2 as -1
    with pytest.raises(ValueError, match="eps must be"):
        check_ma_transform(H, eps, 1.0, 0.5)


def test_ma_transform_takes_a_float_eps_as_its_int():
    for H in (0.3, 0.5):
        for eps in (1, -1):
            chk = check_ma_transform(H, float(eps), 1.0, 0.5)
            assert chk == check_ma_transform(H, eps, 1.0, 0.5)
            assert type(chk.params["eps"]) is int


def test_ma_transform_half_rejects_singular_points():
    with pytest.raises(ValueError):
        check_ma_transform(0.5, 1, 1.0, 0.0)
    with pytest.raises(ValueError):
        check_ma_transform(0.5, 1, 1.0, 1.0)


def test_identity_sweep_size_and_accuracy():
    t0 = time.time()
    checks = identity_sweep()
    elapsed = time.time() - t0
    assert len(checks) >= 48
    worst = max(chk.abs_error for chk in checks)
    assert worst <= 1e-6
    assert elapsed < 60.0
    assert all(isinstance(chk, OracleCheck) for chk in checks)


@pytest.mark.parametrize("s, t", [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0),
                                  (0.5, 3.0), (-1.0, 2.0), (1.5, -0.5),
                                  (-2.0, -0.5)])
def test_increment_integral_at_half_is_the_square_weight_identity(s, t):
    res = oscillatory_power_integral(
        2.0, cos_terms=[(1.0, t - s), (-1.0, t), (-1.0, s)],
        sin_terms=[(1.0, t - s), (1.0, s), (-1.0, t)], const=1.0, tol=1e-9)
    want = OracleCheck("increment_half", {"s": s, "t": t}, res.value,
                       oracle.increment_half_closed(s, t),
                       res.abs_error_estimate)
    assert check_increment_integral(0.5, s, t) == want
    assert want.abs_error <= 1e-8


@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("t, x", [(1.0, -1.0), (1.0, 0.5), (1.0, 2.0),
                                  (-1.0, -2.0), (-1.0, -0.5), (-1.0, 0.5),
                                  (2.0, 0.7)])
def test_ma_transform_at_half_is_the_one_over_y_identity(t, x, eps):
    # at t < x < 0 the real part is -pi, where pi 1{0 < x < t} reads 0
    res = oscillatory_power_integral(
        1.0, cos_terms=[(-eps, t - x), (eps, x)],
        sin_terms=[(1.0, t - x), (1.0, x)], tol=1e-9)
    want = OracleCheck("ma_transform_half", {"eps": eps, "t": t, "x": x},
                       complex(res.value.imag, res.value.real),
                       oracle.ma_transform_half_closed(eps, t, x),
                       res.abs_error_estimate)
    assert check_ma_transform(0.5, eps, t, x) == want
    assert want.abs_error <= 1e-8


def test_identity_sweep_order_names_and_params():
    hs, sts = (0.1, 0.3, 0.7, 0.9), ((1.0, 1.0), (1.0, 2.0), (2.0, 1.0),
                                     (0.5, 3.0))
    xs = (-1.0, 0.5, 2.0)
    want = [("increment_power", {"H": H, "s": s, "t": t})
            for H in hs for s, t in sts]
    want += [("increment_half", {"s": s, "t": t}) for s, t in sts]
    want += [("ma_transform", {"H": H, "eps": eps, "t": 1.0, "x": x})
             for H in hs for x in xs for eps in (1, -1)]
    want += [("ma_transform_half", {"eps": eps, "t": 1.0, "x": x})
             for x in xs for eps in (1, -1)]
    got = [(chk.identity, chk.params) for chk in identity_sweep()]
    assert len(got) == 50
    assert repr(got) == repr(want)   # eps an int, the rest floats


@pytest.mark.parametrize("call, term", [
    (lambda: check_increment_integral(0.3, 1.0, math.inf), "cos_terms[0]"),
    (lambda: check_increment_integral(0.5, 1.0, math.inf), "cos_terms[0]"),
    (lambda: check_ma_transform(0.3, 1, math.inf, 0.5), "cos_terms[0]"),
    (lambda: check_ma_transform(0.5, 1, 1.0, math.inf), "cos_terms[0]"),
    (lambda: oscillatory_power_integral(0.5, cos_terms=[(1.0, math.inf)]),
     "cos_terms[0]"),
    (lambda: oscillatory_power_integral(0.5, cos_terms=[(math.inf, 1.0)]),
     "cos_terms[0]"),
    (lambda: check_increment_integral(0.3, math.nan, 1.0), "cos_terms[0]"),
    (lambda: oscillatory_power_integral(
        1.5, cos_terms=[(1.0, 1.0)], sin_terms=[(1.0, 2.0), (1.0, math.nan)],
        const=-1.0), "sin_terms[1]"),
    (lambda: oscillatory_power_integral(0.5, const=math.inf), "const"),
], ids=["increment", "increment_half", "ma_transform", "ma_transform_half",
        "inf_frequency", "inf_coefficient", "nan_point", "nan_sin_frequency",
        "inf_const"])
def test_non_finite_terms_are_rejected_by_name(call, term):
    # an infinite frequency raised "math domain error" inside a QUADPACK
    # callback, and an infinite coefficient returned nan+0j
    with pytest.raises(ValueError, match=re.escape(f"{term} must be finite")):
        call()


# --------------------------------------------------------------------------
# Memoized power tails
# --------------------------------------------------------------------------

@pytest.mark.parametrize("p, kind, omega", [
    (1.6, "cos", 1.0), (1.6, "sin", 3.0), (2.0, "cos", 0.5), (0.8, "sin", 2.0)])
def test_cached_tail_is_the_uncached_panel(p, kind, omega):
    quadrature._power_tail.cache_clear()
    budget = quadrature._Budget(10**9)
    want = quadrature._quad_panel(lambda y: y**-p, 1.0, np.inf, budget,
                                  epsabs=2.5e-10, weight=kind, wvar=omega)
    for _ in range(2):   # the computing call, then a hit
        assert quadrature._power_tail(p, kind, omega, 2.5e-10) == \
            (*want, budget.used)


def test_second_sweep_gives_the_same_checks_and_charges(monkeypatch):
    quadrature._power_tail.cache_clear()
    used = []
    inner = quadrature.oscillatory_power_integral

    def recording(*args, **kwargs):
        res = inner(*args, **kwargs)
        used.append(res.panels_used)
        return res

    monkeypatch.setattr(quadrature, "oscillatory_power_integral", recording)
    first = identity_sweep()
    first_used, used[:] = list(used), []
    assert quadrature._power_tail.cache_info().hits > 0
    assert identity_sweep() == first
    assert used == first_used


def test_a_cached_tail_charges_the_budget_as_if_integrated(monkeypatch):
    # the budget counts QUADPACK's evaluations whether or not the tails are
    # in the cache; the origin panel fits the budget and the tails do not
    quadrature._power_tail.cache_clear()
    scipy_quad, neval = quadrature.quad, []

    def counting(*args, **kwargs):
        out = scipy_quad(*args, **kwargs)
        neval.append(out[2]["neval"])
        return out

    monkeypatch.setattr(quadrature, "quad", counting)
    call = dict(p=1.37, cos_terms=[(1.0, 1.2345), (-1.0, 2.3456)])
    cold = oscillatory_power_integral(**call)
    assert len(neval) == 3 and cold.panels_used == sum(neval)
    warm = oscillatory_power_integral(**call)
    assert len(neval) == 4 and warm == cold
    messages = []
    monkeypatch.setattr(quadrature, "BUDGET", cold.panels_used - 1)
    for _ in range(2):
        quadrature._power_tail.cache_clear()
        for _ in range(2):   # the first call computes the tails, the next hits
            with pytest.raises(QuadratureError, match="budget") as err:
                oscillatory_power_integral(**call)
            messages.append(str(err.value))
    assert len(set(messages)) == 1


_SWEEP_TAILS = """
import json, math
from rectfield import quadrature
scipy_quad = quadrature.quad
tails = []


def counting(f, a, b, epsabs, weight=None, wvar=None):
    if weight in ("cos", "sin") and b == math.inf:
        tails.append((weight, wvar))
    return scipy_quad(f, a, b, epsabs, weight, wvar)


quadrature.quad = counting
quadrature.identity_sweep()
print(json.dumps(len(tails)))
"""


def test_sweep_integrates_each_distinct_tail_once():
    # 230 tails in the sweep, 74 distinct (p, kind, |omega|, epsabs)
    src = str(Path(rectfield.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _SWEEP_TAILS],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src,
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == 74


# --------------------------------------------------------------------------
# quad: QUADPACK called directly, pinned to scipy.integrate.quad
# --------------------------------------------------------------------------

def _smooth(x):
    return math.exp(-x * x) * math.cos(3.0 * x)


_ROUTES = {   # name -> (integrand, a, b, weight, wvar); one per route of quad
    "QAGS": (lambda x: math.sqrt(x) * math.log(x) if x > 0.0 else 0.0,
             0.0, 1.0, None, None),
    "QAGI below": (_smooth, -math.inf, 0.5, None, None),
    "QAGI above": (_smooth, -0.5, math.inf, None, None),
    "QAGI both": (_smooth, -math.inf, math.inf, None, None),
    "QAWS": (lambda x: math.cos(x), 0.0, 1.0, "alg", (-0.4, 0.0)),
    "QAWF cos": (lambda x: x**-1.3, 1.0, math.inf, "cos", 2.5),
    "QAWF sin": (lambda x: 1.0 / (1.0 + x * x), 0.0, math.inf, "sin", 0.7),
}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_quad_is_scipy_quad_bit_for_bit(route):
    from scipy.integrate import quad as scipy_quad

    f, a, b, weight, wvar = _ROUTES[route]
    got = quadrature.quad(f, a, b, 1e-12, weight, wvar)
    want = scipy_quad(f, a, b, full_output=1, epsabs=1e-12,
                      epsrel=quadrature.EPSREL, limit=quadrature.LIMIT,
                      weight=weight, wvar=wvar, limlst=quadrature.LIMLST,
                      maxp1=quadrature.MAXP1)
    assert len(got) == 4 and len(want) == 3 and got[3] == 0
    assert got[:2] == want[:2]
    assert got[2]["neval"] == want[2]["neval"] > 0


def test_quad_reports_a_failure():
    # 1/x on [0, 1] diverges: QUADPACK stops with ier = 1 far from the
    # tolerance, and the panel raises
    with pytest.raises(QuadratureError, match="ier=1"):
        quadrature._quad_panel(lambda x: 1.0 / x, 0.0, 1.0,
                               quadrature._Budget(10**9), 1e-10)
    with pytest.raises(ValueError, match="ier=6"):   # QUADPACK's invalid input
        quadrature.quad(math.cos, 0.0, 1.0, 1e-10, "alg", (-1.5, 0.0))
    # QUADPACK returns nan for these
    for weight, a, b, wvar in [("cauchy", 0.0, 1.0, 0.5),
                               ("alg", 0.0, math.inf, (0.0, 0.0)),
                               ("sin", 0.0, 7.0, 12.0),
                               ("cos", -math.inf, math.inf, 1.0),
                               ("sin", -math.inf, 0.0, 1.0)]:
        with pytest.raises(ValueError, match="weight"):
            quadrature.quad(math.cos, a, b, 1e-10, weight, wvar)
