"""Covariance kernels: closed forms, weights, invariants."""

import dataclasses
import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from rectfield.kernels import (
    FBS,
    SEAM_DELTA,
    CovKernel,
    MildTheta,
    MovingPair,
    StationarityClass,
    Strict2D,
    StrictGeneral,
    StrictWeights,
    WeightValidationError,
    YHalf,
    ZHalf,
    _letters_array,
    _unique,
    _spectral_mass,
    cov_fbs,
    cov_mild_theta,
    cov_strict_general,
    cov_terms_array,
    increment_cov_terms_array,
    make_kernel,
    strict2d_weights,
    validate_weights,
)
from rectfield.quadrature import oscillatory_power_integral
from rectfield.simulate import Grid, cov_matrix, grid_from_axes

# reference values from a 50-digit evaluation
COV_FBS_0307 = 1.1430476754146098795        # H=(0.3,0.7), s=(1,1), t=(2,3)
ONE_PLUS_LOG = 1.1947202722188830073        # 1 + (2 log 2)^2 / pi^2

DEFAULT_SPECS = [
    FBS((0.3, 0.7)),
    FBS((0.5, 0.5)),
    Strict2D(0.3, 0.7, 0.5),
    Strict2D(0.5, 0.5, 0.8),
    MildTheta(0.3, 0.7, 0.5),
    YHalf(1.0),
    ZHalf(1.0),
    StrictGeneral((0.3, 0.7), StrictWeights(
        {(1, 1): 0.4, (-1, -1): 0.4, (1, -1): 0.1, (-1, 1): 0.1})),
]


def test_cov_fbs_examples():
    assert cov_fbs((0.5, 0.5), (1, 1), (1, 1)) == pytest.approx(1.0)
    assert cov_fbs((0.5, 0.5), (1, 2), (2, 1)) == pytest.approx(1.0)
    assert cov_fbs((0.3, 0.7), (1, 1), (2, 3)) == pytest.approx(
        COV_FBS_0307, rel=1e-14)


def test_cov_fbs_dimension_mismatch():
    with pytest.raises(ValueError):
        cov_fbs((0.5, 0.5), (1, 1, 1), (1, 1))
    with pytest.raises(ValueError, match="one letter per coordinate"):
        cov_strict_general((0.3, 0.7, 0.5), StrictWeights.uniform(2),
                           (1, 1, 1), (1, 1, 1))


def test_strict_2d_examples():
    assert make_kernel(Strict2D(0.5, 0.5, 0.7))((1, 1), (1, 1)) == \
        pytest.approx(1.0)
    assert make_kernel(Strict2D(0.5, 0.5, 1.0))((1, 1), (2, 2)) == \
        pytest.approx(ONE_PLUS_LOG, rel=1e-14)
    rng = np.random.default_rng(1)
    for h1, h2 in ((0.3, 0.7), (0.5, 0.9), (0.25, 0.5), (0.5, 0.5)):
        kernel = make_kernel(Strict2D(h1, h2, 0.0))
        for _ in range(5):
            s, t = rng.uniform(0.1, 3.0, 2), rng.uniform(0.1, 3.0, 2)
            assert kernel(s, t) == pytest.approx(
                oracle.cov_fbs((h1, h2), s, t), rel=1e-12, abs=1e-14)


def _complex_mixture(H, weights, s, t):
    """Re sum_e gamma_e prod_j P(H_j, t_j, s_j, e_j) in complex arithmetic.

    The definition from the module docstring of ``rectfield.kernels``,
    written out independently of its sign-moment evaluation.
    """
    def xlogx(x):
        return x * math.log(x) if x > 0.0 else 0.0

    total = 0.0 + 0.0j
    for e, gam in weights.items():
        prod = complex(gam)
        for h, tj, sj, ej in zip(H, t, s, e):
            d = tj - sj
            if h == 0.5:
                log_br = xlogx(tj) - xlogx(sj) - (d * math.log(abs(d)) if d else 0.0)
                prod *= complex(min(tj, sj), ej * log_br / math.pi)
            else:
                p = 2.0 * h
                sym = tj**p + sj**p - abs(d)**p
                skew = -tj**p + sj**p + (math.copysign(abs(d)**p, d) if d else 0.0)
                prod *= 0.5 * complex(sym, ej * math.tan(math.pi * h) * skew)
        total += prod
    return total.real


def test_strict_2d_matches_general_mixture():
    rng = np.random.default_rng(2)
    for h1, h2 in ((0.3, 0.7), (0.5, 0.7), (0.25, 0.5), (0.5, 0.5)):
        for gamma in (-1.0, -0.4, 0.6, 1.0):
            w = strict2d_weights(gamma)
            kernel = make_kernel(Strict2D(h1, h2, gamma))
            for _ in range(5):
                s, t = rng.uniform(0.05, 3.0, 2), rng.uniform(0.05, 3.0, 2)
                direct = kernel(s, t)
                mixture = _complex_mixture((h1, h2), w, s, t)
                assert direct == pytest.approx(mixture, rel=1e-11, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sign_moments_match_complex_reference(n):
    rng = np.random.default_rng(20 + n)
    signs = list(itertools.product((1, -1), repeat=n))
    for _ in range(60):
        H = tuple(0.5 if rng.random() < 0.3 else float(rng.uniform(0.05, 0.95))
                  for _ in range(n))
        half = rng.dirichlet(np.ones(len(signs) // 2)) / 2.0
        w = {}
        for e, g in zip(signs, half):
            w[e] = w[tuple(-x for x in e)] = float(g)
        weights = StrictWeights(w)
        kernel = make_kernel(StrictGeneral(H, weights))
        s, t = rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n)
        scale = max(math.prod(float(x) ** (2 * h) for h, x in zip(H, p))
                    for p in (s, t))
        ref = _complex_mixture(H, weights, s, t)
        assert abs(kernel(s, t) - ref) <= 1e-14 * scale
        assert abs(cov_strict_general(H, weights, s, t) - ref) <= 1e-14 * scale


def test_strict_general_uniform_weights_is_fbs():
    rng = np.random.default_rng(3)
    H = (0.3, 0.7)
    w = StrictWeights.uniform(2)
    for _ in range(100):
        s, t = rng.uniform(0.0, 3.0, 2), rng.uniform(0.0, 3.0, 2)
        assert cov_strict_general(H, w, s, t) == pytest.approx(
            oracle.cov_fbs(H, s, t), rel=1e-10, abs=1e-12)


def _spectral_weight_scale(H):
    return math.prod(math.gamma(1 + 2 * h) * math.sin(math.pi * h) / math.pi
                     for h in H)


def _spectral_integral_oracle(H, weights, s, t):
    """Mixture covariance straight from its frequency-domain definition.

    sum_e K_e prod_j int_0^inf (e^{i e t y}-1)(e^{-i e s y}-1)/y^{2H+1} dy,
    evaluated by quadrature only (no closed forms).
    """
    scale = _spectral_weight_scale(H)
    total = 0.0 + 0.0j
    for e, gam in weights.items():
        if gam == 0.0:
            continue
        prod = complex(gam * scale)
        for j, ej in enumerate(e):
            tj, sj = ej * t[j], ej * s[j]
            res = oscillatory_power_integral(
                2 * H[j] + 1,
                cos_terms=[(1.0, tj - sj), (-1.0, tj), (-1.0, sj)],
                sin_terms=[(1.0, tj - sj), (1.0, sj), (-1.0, tj)],
                const=1.0)
            prod *= res.value
        total += prod
    assert abs(total.imag) < 1e-9
    return total.real


def test_strict_general_matches_spectral_integral():
    H = (0.3, 0.7)
    w = StrictWeights({(1, 1): 0.5, (-1, -1): 0.5, (1, -1): 0.0, (-1, 1): 0.0})
    s, t = (1.0, 1.0), (2.0, 1.5)
    closed = cov_strict_general(H, w, s, t)
    oracle = _spectral_integral_oracle(H, w, s, t)
    assert closed == pytest.approx(oracle, abs=1e-9)


def test_strict_general_mixed_half_matches_spectral_integral():
    H = (0.5, 0.7)
    w = StrictWeights({(1, 1): 0.3, (-1, -1): 0.3, (1, -1): 0.2, (-1, 1): 0.2})
    s, t = (1.0, 1.0), (2.0, 1.5)
    closed = cov_strict_general(H, w, s, t)
    oracle = _spectral_integral_oracle(H, w, s, t)
    assert closed == pytest.approx(oracle, abs=1e-9)


def test_strict_general_zero_coordinate():
    H = (0.3, 0.7)
    w = StrictWeights.uniform(2)
    assert cov_strict_general(H, w, (0.0, 1.0), (2.0, 3.0)) == 0.0
    assert cov_strict_general(H, w, (1.0, 1.0), (2.0, 0.0)) == 0.0


def test_strict_general_detects_corrupted_weights():
    # bypass validation to emulate weight corruption after construction
    w = object.__new__(StrictWeights)
    object.__setattr__(w, "gamma_by_sign",
                       {(1, 1): 0.6, (-1, -1): 0.2, (1, -1): 0.1, (-1, 1): 0.1})
    with pytest.raises(WeightValidationError, match="imaginary"):
        cov_strict_general((0.3, 0.7), w, (1.0, 1.0), (2.0, 1.5))


def test_validate_weights_accepts_spectral_mass():
    # one-dimensional Brownian case: total must be 1/pi
    K = {(1,): 1 / (2 * math.pi), (-1,): 1 / (2 * math.pi)}
    w = validate_weights(K, (0.5,))
    assert w.gamma_by_sign[(1,)] == pytest.approx(0.5, rel=1e-12)


def test_validate_weights_reports_each_violation():
    K = {(1, 1): -0.1, (-1, -1): 0.2, (1, -1): 0.3, (-1, 1): 0.4}
    with pytest.raises(WeightValidationError) as err:
        validate_weights(K, (0.3, 0.7))
    msgs = err.value.violations
    assert any("negative" in m for m in msgs)
    assert any("symmetry" in m for m in msgs)
    assert any("sum" in m for m in msgs)


def test_strict_weights_validation():
    with pytest.raises(WeightValidationError):
        StrictWeights({})
    with pytest.raises(WeightValidationError):
        StrictWeights({(1,): math.nan, (-1,): math.nan})
    with pytest.raises(WeightValidationError):
        StrictWeights({(1, 1): 0.6, (-1, -1): 0.2, (1, -1): 0.1, (-1, 1): 0.1})
    with pytest.raises(WeightValidationError):
        StrictWeights({(1, 1): 0.5, (-1, -1): 0.5})
    with pytest.raises(WeightValidationError):
        StrictWeights({(1, 1): 0.75, (-1, -1): 0.75,
                       (1, -1): -0.25, (-1, 1): -0.25})


@pytest.mark.parametrize("key", [(-1.7, 1), (-1, 0.5), (1, math.nan)])
def test_weight_keys_must_have_entries_plus_or_minus_one(key):
    # int() truncated (-1.7, 1) to (-1, 1), so the table below was accepted
    gam = {(1, 1): 0.25, (-1, -1): 0.25, (1, -1): 0.25, key: 0.25}
    with pytest.raises(WeightValidationError, match="other than"):
        StrictWeights(gam)
    mass = _spectral_mass((0.3, 0.7))
    with pytest.raises(WeightValidationError, match="other than"):
        validate_weights({e: v * mass for e, v in gam.items()}, (0.3, 0.7))


def test_mild_theta_examples():
    assert cov_mild_theta(0.3, 0.7, 0.83, (1.2, 0.4), (1.2, 0.4)) == \
        pytest.approx(1.2 ** 0.6 * 0.4 ** 1.4, rel=1e-12)
    rng = np.random.default_rng(4)
    for _ in range(10):
        s, t = rng.uniform(0.1, 3.0, 2), rng.uniform(0.1, 3.0, 2)
        assert cov_mild_theta(0.3, 0.7, 0.0, s, t) == pytest.approx(
            cov_fbs((0.3, 0.7), s, t), rel=1e-13)
    assert cov_mild_theta(0.5, 0.5, 1.0, (1, 1), (2, 2)) == pytest.approx(
        1.0 + 1.0 / 16.0, rel=1e-14)


def test_mild_theta_half_equals_y_half():
    rng = np.random.default_rng(5)
    for _ in range(25):
        s, t = rng.uniform(0.0, 3.0, 2), rng.uniform(0.05, 3.0, 2)
        theta = rng.uniform(-1.0, 1.0)
        assert make_kernel(MildTheta(0.5, 0.5, theta))(s, t) == pytest.approx(
            make_kernel(YHalf(theta))(s, t), rel=1e-12, abs=1e-14)


def test_y_half_examples():
    assert make_kernel(YHalf(0.37))((0.8, 1.9), (0.8, 1.9)) == \
        pytest.approx(0.8 * 1.9)
    assert make_kernel(YHalf(0.0))((1, 3), (2, 2)) == pytest.approx(2.0)
    assert make_kernel(YHalf(1.0))((1, 1), (2, 2)) == \
        pytest.approx(17.0 / 16.0)


def test_z_half_examples():
    assert make_kernel(ZHalf(1.0))((1, 1), (1, 1)) == pytest.approx(1.0)
    with pytest.warns(UserWarning):
        assert make_kernel(ZHalf(0.0))((1, 3), (2, 2)) == pytest.approx(2.0)
    assert make_kernel(ZHalf(1.0))((1, 1), (2, 2)) == \
        pytest.approx(ONE_PLUS_LOG, rel=1e-14)


def test_mild_theta_underflowing_power_is_zero():
    # 6e-299^1.4 underflows to 0; the correction ratio divided by it
    assert cov_mild_theta(0.3, 0.7, 0.5, (0.0, 0.0), (1.0, 6e-299)) == 0.0
    assert cov_mild_theta(0.3, 0.7, 0.5, (1.0, 6e-299), (1.0, 6e-299)) == 0.0


def test_theta_outside_unit_interval_warns():
    with pytest.warns(UserWarning, match="semidefinite"):
        make_kernel(YHalf(1.5))((1, 1), (2, 2))


def test_theta_warning_points_at_the_caller_once():
    # a theta outside [-1, 1] is reported where it enters, at the caller's
    # line, never from inside kernels.py, and once: YHalf builds its
    # canonical MildTheta when it is built, so make_kernel never warns
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        mild = MildTheta(0.3, 0.7, 8.0)
        half = YHalf(1.5)
        make_kernel(half)((1, 1), (2, 2))
        make_kernel(MildTheta(0.3, 0.7, -2.0))((1, 1), (2, 2))
        kernels = [make_kernel(mild), make_kernel(half)]
    assert len(rec) == 3
    assert all("semidefinite" in str(w.message) for w in rec)
    assert [w.filename for w in rec] == [__file__] * 3
    assert [w.lineno for w in rec] == [rec[0].lineno + k for k in (0, 1, 3)]
    # evaluating the kernels warns no more, on single pairs or batches
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        for kernel in kernels:
            kernel((1.0, 1.0), (2.0, 2.0))
            kernel.batch(np.ones((3, 2)), np.full((3, 2), 2.0))
    assert rec == []


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=lambda s: repr(s))
def test_self_similarity(spec):
    kernel = make_kernel(spec)
    H = spec.hurst
    rng = np.random.default_rng(6)
    for _ in range(20):
        s, t = rng.uniform(0.1, 2.0, 2), rng.uniform(0.1, 2.0, 2)
        a = rng.uniform(0.05, 2.0, 2)
        lhs = kernel(a * s, a * t)
        rhs = math.prod(float(a[k]) ** (2 * H[k]) for k in range(2)) \
            * kernel(s, t)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=lambda s: repr(s))
def test_symmetry_and_diagonal(spec):
    kernel = make_kernel(spec)
    H = spec.hurst
    rng = np.random.default_rng(7)
    for _ in range(20):
        s, t = rng.uniform(0.0, 3.0, 2), rng.uniform(0.05, 3.0, 2)
        assert kernel(s, t) == pytest.approx(kernel(t, s), rel=1e-13,
                                             abs=1e-14)
        diag = math.prod(float(t[k]) ** (2 * H[k]) for k in range(2))
        assert kernel(t, t) == pytest.approx(diag, rel=1e-12)
    assert kernel((0.0, 1.0), (1.0, 2.0)) == 0.0


@pytest.mark.parametrize("spec", DEFAULT_SPECS, ids=lambda s: repr(s))
def test_numerical_positive_semidefiniteness(spec):
    kernel = make_kernel(spec)
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.1, 3.0, size=(40, 2))
    M = np.array([[kernel(p, q) for q in pts] for p in pts])
    M = 0.5 * (M + M.T)
    min_eig = np.linalg.eigvalsh(M)[0]
    assert min_eig >= -1e-8 * np.trace(M)


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=50, deadline=None)
def test_fbs_diagonal_law_hypothesis(h1, h2):
    t = (1.7, 0.6)
    val = cov_fbs((h1, h2), t, t)
    assert val == pytest.approx(t[0] ** (2 * h1) * t[1] ** (2 * h2),
                                rel=1e-12)


def test_points_must_be_finite():
    for bad in ((1.0, math.inf), (math.nan, 1.0), (-1.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            cov_fbs((0.3, 0.7), (1.0, 1.0), bad)
        with pytest.raises(ValueError, match="finite"):
            make_kernel(Strict2D(0.3, 0.7, 0.5))(bad, (1.0, 1.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        MildTheta(0.3, 0.7, math.nan)
    with pytest.raises(ValueError):
        YHalf(math.inf)
    with pytest.raises(ValueError):
        MovingPair(0.3, 0.7, math.nan, 0.0)
    with pytest.raises(ValueError):
        FBS((1.2, 0.5))
    with pytest.raises(ValueError):
        Strict2D(0.3, 0.7, 1.5)
    with pytest.raises(ValueError):
        MovingPair(0.5, 0.7, 1.0, 0.0)     # mixed half / non-half
    with pytest.raises(ValueError):
        MovingPair(0.3, 0.7, 1.0, 1.0)     # constraint violated
    MovingPair(0.3, 0.7, 1.0, 0.0)
    MovingPair(0.5, 0.5, 0.6, 0.8)


def test_claimed_classes():
    # mild-only exactly where the term table has an "arho" letter
    for spec, want in ((FBS((0.3, 0.7)), StationarityClass.STRICT_WIDE),
                       (YHalf(1.0), StationarityClass.MILD_ONLY),
                       (YHalf(0.0), StationarityClass.STRICT_WIDE),
                       (MildTheta(0.3, 0.7, 0.5), StationarityClass.MILD_ONLY),
                       (ZHalf(0.5), StationarityClass.STRICT_WIDE)):
        assert make_kernel(spec).claimed_class is want, spec


def test_kernel_is_its_canonical_table():
    # H, n and the claimed class come from the canonical spec's table, and
    # batch is that table's evaluator, bit for bit
    rng = np.random.default_rng(31)
    for spec in DEFAULT_SPECS + [MovingPair(0.3, 0.7, 1.0, 0.0),
                                 FBS((0.3, 0.6, 0.8))]:
        canon, kernel = spec.canonical(), make_kernel(spec)
        assert kernel.spec is spec and kernel.terms == canon.terms
        assert kernel.H == kernel.hurst == tuple(canon.hurst)
        assert kernel.n == len(canon.hurst)
        mild = any("arho" in row for _, row in canon.terms)
        assert kernel.claimed_class is (StationarityClass.MILD_ONLY if mild
                                        else StationarityClass.STRICT_WIDE)
        s, t = rng.uniform(0.0, 3.0, size=(2, 20, kernel.n))
        np.testing.assert_array_equal(
            kernel.batch(s, t), cov_terms_array(canon.hurst, canon.terms, s, t))


def test_batch_looks_up_the_module_evaluator_at_each_call(monkeypatch):
    # a kernel built before a patch of kernels.cov_terms_array evaluates
    # through the patch, as module wrappers that count evaluations need
    from rectfield import kernels

    kernel = make_kernel(MildTheta(0.3, 0.7, 0.5))
    exact = kernels.cov_terms_array
    calls = []

    def counted(H, terms, s, t):
        calls.append((H, terms))
        return exact(H, terms, s, t)

    monkeypatch.setattr(kernels, "cov_terms_array", counted)
    s, t = np.array([[1.0, 2.0], [0.5, 0.3]]), np.array([2.0, 1.5])
    np.testing.assert_array_equal(kernel.batch(s, t),
                                  exact(kernel.H, kernel.terms, s, t))
    assert kernel(s[0], t) == float(exact(kernel.H, kernel.terms, s[0], t))
    assert calls == [(kernel.H, kernel.terms)] * 2


def test_make_kernel_checks_the_table_when_it_builds_the_kernel(monkeypatch):
    # a bad canonical table is refused by make_kernel, before any evaluation
    bad = types.SimpleNamespace(hurst=(0.3, 0.7), terms=((1.0, ("a", "c")),))
    monkeypatch.setattr(FBS, "canonical", lambda self: bad)
    with pytest.raises(ValueError, match=r"term \(1.0, \('a', 'c'\)\)"):
        make_kernel(FBS((0.3, 0.7)))
    bad.hurst, bad.terms = (0.3, 1.2), ((1.0, ("a", "a")),)
    with pytest.raises(ValueError):
        make_kernel(FBS((0.3, 0.7)))


@pytest.mark.parametrize("spec, canonical", [
    (FBS((0.3, 0.7)), StrictGeneral((0.3, 0.7), StrictWeights.uniform(2))),
    (Strict2D(0.3, 0.7, 0.5), StrictGeneral((0.3, 0.7), strict2d_weights(0.5))),
    (ZHalf(0.8), Strict2D(0.5, 0.5, 0.8)),
    (YHalf(0.7), MildTheta(0.5, 0.5, 0.7)),
    (MovingPair(0.5, 0.5, 0.6, 0.8), Strict2D(0.5, 0.5, 2 * 0.6 * 0.8)),
], ids=lambda x: type(x).__name__)
def test_families_evaluate_as_their_canonical_spec(spec, canonical):
    kernel, ref = make_kernel(spec), make_kernel(canonical)
    assert kernel.spec is spec
    assert kernel.claimed_class is ref.claimed_class
    rng = np.random.default_rng(9)
    for _ in range(10):
        s, t = rng.uniform(0.0, 3.0, 2), rng.uniform(0.0, 3.0, 2)
        assert kernel(s, t) == ref(s, t)


def test_z_half_nonpositive_gamma_warns_on_construction():
    with pytest.warns(UserWarning, match="outside"):
        ZHalf(0.0)


@given(st.floats(min_value=0.01, max_value=0.99).filter(lambda h: h != 0.5),
       st.floats(min_value=0.01, max_value=0.99).filter(lambda h: h != 0.5),
       st.floats(min_value=-1.0, max_value=1.0),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_moving_pair_gamma_in_unit_interval_hypothesis(h1, h2, d0, plus):
    """The mapped coupling of a moving pair on its constraint curve is in [-1, 1].

    With a = pi H1, b = pi H2 in (0, pi) and c = sin a sin b > 0,
    cos(a - b) <= 1 and cos(a + b) >= -1 give |cos a cos b| <= 1 - c, so

        |gamma| = 2 |d0 d1| |cos a cos b| <= 2 |d0 d1| (1 - c)
                <= 2 |d0 d1| + 2 c d0 d1 <= d0^2 + d1^2 + 2 c d0 d1 = 1.

    At H = (1/2, 1/2), |gamma| = |2 d0 d1| <= d0^2 + d1^2 = 1.  Off the
    curve by the residual r, the same chain bounds |gamma| by 1 + r.
    """
    for H in ((h1, h2), (0.5, 0.5)):
        c = math.sin(math.pi * H[0]) * math.sin(math.pi * H[1]) \
            if H != (0.5, 0.5) else 0.0
        root = d0 * d0 * (c * c - 1.0) + 1.0
        d1 = -d0 * c + (1.0 if plus else -1.0) * math.sqrt(root)
        spec = MovingPair(H[0], H[1], d0, d1)
        res = d0 * d0 + 2.0 * c * d0 * d1 + d1 * d1 - 1.0
        assert abs(spec.gamma) <= 1.0 + abs(res) + 4e-16
        make_kernel(spec)((1.0, 2.0), (2.0, 1.0))   # builds without error


def test_make_kernel_unknown_spec():
    with pytest.raises(TypeError):
        make_kernel(object())


def test_uniform_weights_every_dimension():
    for n in (1, 2, 3):
        w = StrictWeights.uniform(n)
        assert len(w.gamma_by_sign) == 2 ** n
        assert sum(w.gamma_by_sign.values()) == pytest.approx(1.0)


def test_three_dimensional_fbs():
    H = (0.2, 0.5, 0.8)
    s, t = (1.0, 2.0, 0.5), (1.5, 1.0, 2.0)
    w = StrictWeights.uniform(3)
    assert cov_strict_general(H, w, s, t) == pytest.approx(
        oracle.cov_fbs(H, s, t), rel=1e-10)


# --------------------------------------------------------------------------
# Array forms against the scalar oracle, and the scalar calls as array calls
# --------------------------------------------------------------------------

_coordinate = st.one_of(st.just(0.0), st.just(1.0),
                        st.floats(min_value=0.0, max_value=4.0))


@st.composite
def _specs_and_points(draw):
    """A spec (DEFAULT_SPECS or a 3-D strict mixture) and m points s, t."""
    if draw(st.booleans()):
        spec = draw(st.sampled_from(DEFAULT_SPECS))
    else:
        H = tuple(draw(st.sampled_from((0.2, 0.5, 0.5, 0.8, 0.35)))
                  for _ in range(3))
        raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=4, max_size=4))
        signs = list(itertools.product((1, -1), repeat=3))[:4]
        total = 2.0 * sum(raw)
        gamma = {}
        for e, g in zip(signs, raw):
            gamma[e] = gamma[tuple(-x for x in e)] = g / total
        spec = StrictGeneral(H, StrictWeights(gamma))
    n = len(spec.hurst)
    m = draw(st.integers(min_value=1, max_value=6))
    pts = st.lists(_coordinate, min_size=n, max_size=n)
    s = draw(st.lists(pts, min_size=m, max_size=m))
    t = [list(p) if draw(st.booleans()) else draw(pts) for p in s]   # s = t
    return spec, np.array(s), np.array(t)


@given(_specs_and_points())
@settings(max_examples=120, deadline=None)
def test_batch_matches_scalar_hypothesis(case):
    # every pair (s_i, t_j) through one broadcast call, against the scalar
    # oracle, relative to max(|K|, prod_k max(s_k, t_k)^{2 H_k})
    spec, s, t = case
    kernel = make_kernel(spec)
    ev = oracle.evaluator(spec)
    H = np.array(spec.hurst)
    got = kernel.batch(s[:, None, :], t[None, :, :])
    assert got.shape == (len(s), len(t))
    for i, p in enumerate(s):
        for j, q in enumerate(t):
            want = ev(p, q)
            scale = max(abs(want), float(np.prod(np.maximum(p, q) ** (2 * H))))
            assert abs(got[i, j] - want) <= 1e-14 * scale


@pytest.mark.parametrize("spec", [FBS((0.3, 0.7)), MildTheta(0.3, 0.7, 0.5)],
                         ids=repr)
def test_batch_rejects_bad_points(spec):
    kernel = make_kernel(spec)
    good = np.ones((3, 2))
    for bad in (np.array([[1.0, math.nan]]), np.array([[1.0, -0.5]]),
                np.array([[1.0, math.inf]]), np.ones((3, 3)), np.ones(3),
                np.float64(1.0)):
        with pytest.raises(ValueError):
            kernel.batch(bad, good[:1])
        with pytest.raises(ValueError):
            kernel.batch(good[:1], bad)


def test_scalar_calls_are_the_batch_form_bit_for_bit():
    # one evaluation path: a kernel called on two points and each function
    # of one pair return float(batch(s, t)) with the same bits
    assert [f.name for f in dataclasses.fields(CovKernel)] == \
        ["spec", "H", "terms"]
    rng = np.random.default_rng(10)
    pairs = rng.uniform(0.0, 3.0, size=(100, 2, 2))
    pairs[::10, 1] = pairs[::10, 0]                    # some s = t
    for spec in DEFAULT_SPECS + [YHalf(0.6), ZHalf(0.8)]:
        kernel = make_kernel(spec)
        for s, t in pairs:
            assert kernel(s, t) == float(kernel.batch(s, t))
    w = DEFAULT_SPECS[-1].weights
    for f, spec in (
            (lambda s, t: cov_fbs((0.3, 0.7), s, t), FBS((0.3, 0.7))),
            (lambda s, t: cov_strict_general((0.3, 0.7), w, s, t),
             StrictGeneral((0.3, 0.7), w)),
            (lambda s, t: cov_mild_theta(0.3, 0.7, 0.5, s, t),
             MildTheta(0.3, 0.7, 0.5))):
        batch = make_kernel(spec).batch
        for s, t in pairs:
            assert f(s, t) == float(batch(s, t))
    # a bare number is a 1-D point
    one = make_kernel(FBS((0.4,)))
    assert cov_fbs((0.4,), 1.0, 2.0) == float(one.batch([1.0], [2.0]))
    assert one(1.0, 2.0) == cov_fbs((0.4,), [1.0], [2.0])


def _every_family(h1, h2):
    # on the unit-variance curve with d0 = d1; at H = 1/2 it is a circle
    cross = 0.0 if h1 == 0.5 else math.sin(math.pi * h1) * math.sin(math.pi * h2)
    d = 1.0 / math.sqrt(2.0 * (1.0 + cross))
    w = DEFAULT_SPECS[-1].weights
    return [FBS((h1, h2)), Strict2D(h1, h2, 0.5), MildTheta(h1, h2, 0.6),
            StrictGeneral((h1, h2), w), MovingPair(h1, h2, d, d)]


# every family off the seam, within SEAM_DELTA of it on both sides and at
# H = 1/2 exactly, and a 3-D strict mixture
_PAIR_SPECS = (
    _every_family(0.3, 0.7) + _every_family(0.5 - 1e-9, 0.5 + 1e-9)
    + _every_family(0.47, 0.52) + _every_family(0.5, 0.5)
    + [YHalf(0.6), ZHalf(0.8), StrictGeneral((0.3, 0.5, 0.7), StrictWeights(
        {e: (0.2 if e[0] == e[1] else 0.05)
         for e in itertools.product((1, -1), repeat=3)}))])


def _pairs(n, seed):
    """300 pairs of points in [0, 3]^n, some equal, some on an axis."""
    s, t = np.random.default_rng(seed).uniform(0.0, 3.0, size=(2, 300, n))
    s[::10] = t[::10]
    s[5::10, 0] = 0.0
    return s, t


@pytest.mark.parametrize("spec", _PAIR_SPECS, ids=repr)
def test_one_pair_is_its_row_of_a_batch_bit_for_bit(spec):
    # a single pair reached numpy's scalar power, whose last bit can differ
    # from the array power's: 22 of 500 pairs differed for fBs at (0.3, 0.7)
    kernel = make_kernel(spec)
    s, t = _pairs(kernel.n, 11)
    assert [kernel(p, q) for p, q in zip(s, t)] == kernel.batch(s, t).tolist()


@pytest.mark.parametrize("spec", _PAIR_SPECS, ids=repr)
def test_covariance_is_the_increment_covariance_from_the_origin(spec):
    # the fields vanish on the axes, so K(s, t) is the covariance of the
    # increments over [0, s] and [0, t]; one lag rule takes both
    canon = spec.canonical()
    H, terms = canon.hurst, canon.terms
    s, t = _pairs(len(H), 12)
    got = cov_terms_array(H, terms, s, t)
    zero = np.zeros(len(H))
    want = increment_cov_terms_array(H, terms, zero, s, zero, t)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(got).max()


@pytest.mark.parametrize("terms, match", [
    (((1.0, ("a", "c")),), r"term \(1.0, \('a', 'c'\)\)"),
    (((math.nan, ("a", "a")),), r"term \(nan, .*finite coefficient"),
    (((0.25, ("a", "a")), (math.inf, ("b", "b"))), r"term \(inf, "),
    ((), "at least one term"),
    (((0.25, ("a", "a")), (0.1, ("b", "a"))),
     r"term \(0.1, \('b', 'a'\)\) has an odd number of letters b or arho"),
], ids=["letter c", "nan coefficient", "inf coefficient", "empty table",
        "odd term"])
def test_both_evaluators_reject_a_bad_term_table(terms, match):
    # a letter c raised KeyError, a non-finite coefficient returned NaN, an
    # empty table a bare 0.0 whatever the points' shape, and an odd term a
    # covariance with K(t, s) != K(s, t), whose upper triangle cov_matrix
    # mirrored; cov_matrix checks the table once on both of its routes, a
    # mesh of axes (where a letter c raised KeyError) and any other points
    s, t = np.ones((3, 2)), np.full((3, 2), 2.0)
    with pytest.raises(ValueError, match=match):
        cov_terms_array((0.3, 0.7), terms, s, t)
    with pytest.raises(ValueError, match=match):
        increment_cov_terms_array((0.3, 0.7), terms, s, t, s, t)
    kernel = CovKernel(None, (0.3, 0.7), terms)
    for grid in (grid_from_axes([[0.5, 1.0, 2.0], [1.0, 2.0]]),
                 Grid([[0.5, 1.0], [1.0, 2.0], [2.0, 1.5]])):
        with pytest.raises(ValueError, match=match):
            cov_matrix(kernel, grid)


_SYMMETRY_H = (0.5, 0.5 + SEAM_DELTA / 2, 0.5 - SEAM_DELTA / 3, 0.5 + 1e-9,
               0.2, 0.35, 0.7, 0.85)


@st.composite
def _tables_and_pairs(draw):
    """A family's table, at H exactly 1/2, within SEAM_DELTA of it or away
    from it per coordinate, in 2-D or 3-D, and m pairs of points s, t."""
    h = st.sampled_from(_SYMMETRY_H)
    unit = st.floats(min_value=-1.0, max_value=1.0)
    kind = draw(st.sampled_from(("fbs", "strict2d", "mildtheta", "strict")))
    if kind == "fbs":
        spec = FBS(tuple(draw(h) for _ in range(draw(st.integers(2, 3)))))
    elif kind == "strict2d":
        spec = Strict2D(draw(h), draw(h), draw(unit))
    elif kind == "mildtheta":
        spec = MildTheta(draw(h), draw(h), draw(unit))
    else:   # a 3-D mixture: positive weights, equal on e and -e
        raw = draw(st.lists(st.floats(min_value=0.01, max_value=1.0),
                            min_size=4, max_size=4))
        gamma = {}
        for e, g in zip(list(itertools.product((1, -1), repeat=3))[:4], raw):
            gamma[e] = gamma[tuple(-x for x in e)] = g / (2.0 * sum(raw))
        spec = StrictGeneral(tuple(draw(h) for _ in range(3)),
                             StrictWeights(gamma))
    n = len(spec.hurst)
    coordinate = st.one_of(_coordinate, st.floats(min_value=0.0,
                                                  max_value=1e3))
    pts = st.lists(st.lists(coordinate, min_size=n, max_size=n),
                   min_size=1, max_size=8)
    s = draw(pts)
    t = [p if draw(st.booleans()) else draw(pts)[0] for p in s]
    return spec, np.array(s), np.array(t)


@given(_tables_and_pairs())
@settings(max_examples=200, deadline=None)
def test_every_family_is_bitwise_symmetric_hypothesis(case):
    # a is symmetric in (t, s) bit for bit, b and a rho antisymmetric, and
    # each term has an even number of b and a rho letters: K(s, t) and
    # K(t, s) have the same bits, so the mirror of cov_matrix and mc's
    # corner matrices changes no bit of an accepted table
    spec, s, t = case
    kernel = make_kernel(spec)
    assert kernel.batch(s, t).tobytes() == kernel.batch(t, s).tobytes()


# --------------------------------------------------------------------------
# The H = 1/2 seam of the strict brackets
# --------------------------------------------------------------------------

_ULP_UP, _ULP_DOWN = math.ulp(0.5), math.ulp(0.5) / 2   # spacing above, below
_SEAM_H = sorted(
    [0.5 + k * _ULP_UP for k in (1, 2, 10)]
    + [0.5 - k * _ULP_DOWN for k in (1, 2, 10)]
    + [0.5 + sign * 10.0**-j for j in range(2, 16) for sign in (1, -1)])
_SEAM_AXIS = (1e-3, 0.03, 0.7, 1.0, 2.5, 40.0, 1e3)
_SEAM_POINTS = [(t, s) for t in _SEAM_AXIS for s in _SEAM_AXIS]


def _mp_brackets(mp, h, t, s):
    """(a, b, a_scale, b_scale) at 40 digits.  Each scale is the magnitude of
    the seam form's terms, with E(x) = expm1(2 delta log x): 2 min(t, s) +
    |t E(t)| + |s E(s)| + |d E(|d|)| for a, and (|s E(s)| + |t E(t)|
    + |d E(|d|)|) / |tan(pi delta)| for b."""
    h, t, s = mp.mpf(h), mp.mpf(t), mp.mpf(s)
    d, delta = t - s, h - mp.mpf(0.5)
    a = t**(2 * h) + s**(2 * h) - abs(d)**(2 * h)
    b = mp.tan(mp.pi * h) * (-t**(2 * h) + s**(2 * h)
                             + mp.sign(d) * abs(d)**(2 * h))
    lin = sum(abs(x * mp.expm1(2 * delta * mp.log(abs(x)))) if x else 0
              for x in (s, t, d))
    return a, b, 2 * min(t, s) + lin, lin / abs(mp.tan(mp.pi * delta))


@pytest.mark.parametrize("h", _SEAM_H)
def test_seam_brackets_match_mpmath(h):
    # tan(pi H) times a bracket that cancels to O(H - 1/2) lost up to all
    # of b near the seam: K was 32% low at 1/2 - 1 ulp
    mp = pytest.importorskip("mpmath")
    t, s = (np.array(v) for v in zip(*_SEAM_POINTS))
    letters = _letters_array(h, t, s, ("a", "b"))
    a, b = letters["a"], letters["b"]
    with mp.workdps(40):
        want = [_mp_brackets(mp, h, *p) for p in _SEAM_POINTS]
    for k, (wa, wb, a_scale, b_scale) in enumerate(want):
        assert abs(a[k] - float(wa)) <= 1e-13 * float(a_scale), _SEAM_POINTS[k]
        assert abs(b[k] - float(wb)) <= 1e-13 * float(b_scale), _SEAM_POINTS[k]
        assert abs(a[k] - oracle._a_bracket(h, *_SEAM_POINTS[k])) <= \
            1e-15 * float(a_scale)
        assert abs(b[k] - oracle._b_bracket(h, *_SEAM_POINTS[k])) <= \
            1e-15 * float(b_scale)


def _mp_letters(mp, h, t, s):
    """{letter: (value, scale)} at 40 digits, the scales of ``_mp_brackets``.
    a rho takes a's scale: |rho| <= 1, and rho is rounded to a few ulp of 1."""
    a, b, a_scale, b_scale = _mp_brackets(mp, h, t, s)
    h, t, s = mp.mpf(h), mp.mpf(t), mp.mpf(s)
    rho = (t**(2 * h) - s**(2 * h)) / max(s, t)**(2 * h)
    return {"a": (a, a_scale), "b": (b, b_scale), "arho": (a * rho, a_scale)}


@pytest.mark.parametrize("h", _SEAM_H)
def test_seam_strict_kernel_matches_mpmath(h):
    # each spec's letter table summed at 40 digits: the strict one and the
    # mild one, whose a rho letter takes its powers outside the seam form
    mp = pytest.importorskip("mpmath")
    pts = _SEAM_POINTS[::5]
    S = np.array([[s, 0.3 * t + 0.1] for t, s in pts])
    T = np.array([[t, 2.0 * s] for t, s in pts])
    for spec in (Strict2D(h, h, 0.8), MildTheta(h, h, 0.5)):
        got = make_kernel(spec).batch(S, T)
        with mp.workdps(40):
            for k in range(len(pts)):
                letters = [_mp_letters(mp, h, T[k, j], S[k, j])
                           for j in range(2)]
                want = scale = 0
                for coef, row in spec.canonical().terms:
                    term, size = mp.mpf(coef), abs(mp.mpf(coef))
                    for lj, name in zip(letters, row):
                        term *= lj[name][0]
                        size *= lj[name][1]
                    want += term
                    scale += size
                assert abs(got[k] - float(want)) <= 1e-13 * float(scale), \
                    (spec, S[k], T[k])


@pytest.mark.parametrize("h", [0.5 + 1e-9, 0.5 - 1e-9, 0.5 + 2.0**-30,
                               0.5 - 1e-7, 0.45])
def test_moving_pair_gamma_matches_mpmath_at_the_seam(h):
    # cos(pi H) near 1/2 lost the digits that pi H rounded away: gamma was
    # 2.7e-8 relative off at 1/2 + 1e-9
    mp = pytest.importorskip("mpmath")
    for h2 in (h, 0.3):
        d = 1.0 / math.sqrt(2.0 * (1.0 + math.sin(math.pi * h)
                                   * math.sin(math.pi * h2)))
        with mp.workdps(40):
            want = float(2 * mp.mpf(d)**2 * mp.cos(mp.pi * mp.mpf(h))
                         * mp.cos(mp.pi * mp.mpf(h2)))
        assert abs(MovingPair(h, h2, d, d).gamma - want) <= 1e-15 * abs(want)


@pytest.mark.parametrize("spec", [lambda h: Strict2D(h, h, 1.0),
                                  lambda h: MildTheta(h, h, 0.5)],
                         ids=["strict2d", "mildtheta"])
def test_kernels_are_continuous_at_the_seam(spec):
    # the far-apart pair (1e-3, 1e3) cancelled in the plain a bracket too:
    # 2.4e-11 off for the mild family at 1/2 +- 1 ulp
    S = np.array([[0.7, 2.0], [1e-3, 40.0], [1.0, 1.0], [2.5, 0.03]])
    T = np.array([[2.5, 0.3], [1e3, 0.7], [1.0, 2.5], [0.7, 0.03]])
    half = make_kernel(spec(0.5)).batch(S, T)
    for h in (0.5 - _ULP_DOWN, 0.5 + _ULP_UP):
        got = make_kernel(spec(h)).batch(S, T)
        assert np.all(np.abs(got - half) <= 1e-14 * np.abs(half)), h


@pytest.mark.parametrize("h", [0.5 - _ULP_DOWN, 0.5 + _ULP_UP])
def test_classify_labels_strict2d_strictly_stationary_at_the_seam(h):
    from rectfield.increments import classify_stationarity

    report = classify_stationarity(make_kernel(Strict2D(h, h, 1.0)))
    assert report.require_label() is StationarityClass.STRICT_WIDE


def test_seam_form_leaves_the_plain_form_where_h_is_away_from_half():
    # every benchmark and test H is at least 0.1 from 1/2; the plain form's
    # bits stay there
    assert SEAM_DELTA <= 0.1 - 1e-15
    t, s = np.array([2.5, 0.7, 1e3]), np.array([0.7, 2.5, 1e-3])
    for h in (0.4, 0.6, 0.3, 0.7):
        b = _letters_array(h, t, s, ("b",))["b"]
        e = 2.0 * h
        plain = math.tan(math.pi * h) * (-t**e + s**e
                                         + np.sign(t - s) * np.abs(t - s)**e)
        assert np.array_equal(b, plain), h


@pytest.mark.parametrize("seed", range(4))
def test_unique_is_np_unique_in_order_and_inverse(seed):
    # one stable sort replaces np.unique, which loads numpy.ma; the tables
    # have duplicate rows, zero coordinates and ties in leading columns
    rng = np.random.default_rng(seed)
    values = np.array([0.0, 0.5, 1.0, 1e-300, 2.0, 7.25])
    for shape in ((60, 3), (60, 1), (1, 2), (5, 4), (0, 2)):
        table = rng.choice(values, size=shape)
        rows, inverse = _unique(table)
        want, want_inverse = np.unique(table, axis=0, return_inverse=True)
        assert np.array_equal(rows, want)
        assert np.array_equal(inverse, want_inverse.ravel())
        assert np.array_equal(rows[inverse], table)
    for k in (rng.integers(0, 12, size=40), np.array([5]),
              np.zeros(0, dtype=np.int64)):
        edges, inverse = _unique(k)
        want, want_inverse = np.unique(k, return_inverse=True)
        assert edges.dtype == want.dtype and np.array_equal(edges, want)
        assert np.array_equal(inverse, want_inverse)
