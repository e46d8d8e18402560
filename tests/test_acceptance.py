"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with  pytest tests/test_acceptance.py -s  to see the lines as they pass.
Every tolerance is fixed here; nothing is calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

import rectfield as rf


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_01_oracle_suite():
    t0 = time.monotonic()
    checks = rf.identity_sweep()
    elapsed = time.monotonic() - t0
    worst = max(c.abs_error for c in checks)
    ok = len(checks) >= 48 and worst <= 1e-6 and elapsed < 60.0
    _report(1, ok, f"{len(checks)} integral identities, max |numeric-closed| "
                   f"= {worst:.3e} (tol 1e-6), {elapsed:.1f}s")


def test_criterion_02_density_reduction():
    xs = np.arange(-10.0, 10.0 + 1e-12, 0.01)
    worst = max(abs(rf.g_fbm(0.5, x) - rf.g_w(x)) / rf.g_w(x) for x in xs)
    ok = worst <= 1e-10
    _report(2, ok, f"max relative gap to the Cauchy density on [-10,10] "
                   f"= {worst:.3e} (tol 1e-10)")


def test_criterion_03_fourier_reconstruction():
    worst1 = 0.0
    for H in (0.1, 0.3, 0.7, 0.9):
        dens = rf.fbm_density(H)
        for v in np.linspace(-3.0, 3.0, 25):
            got = rf.cov_from_density(dens, (v,)).value
            want = rf.c_fbs_stationary((H,), (v,))
            worst1 = max(worst1, abs(got - want))
    H2 = (0.3, 0.7)
    dens2 = rf.product_density(H2)
    worst2 = 0.0
    for v1 in np.linspace(-3.0, 3.0, 11):
        for v2 in np.linspace(-3.0, 3.0, 11):
            got = rf.cov_from_density(dens2, (v1, v2)).value
            want = rf.c_fbs_stationary(H2, (v1, v2))
            worst2 = max(worst2, abs(got - want))
    ok = worst1 <= 1e-4 and worst2 <= 1e-4
    _report(3, ok, f"1-D reconstruction max err {worst1:.3e}, 2-D product "
                   f"max err {worst2:.3e} (tol 1e-4; per-coordinate 1/(2 pi) "
                   f"normalization of the product density confirmed)")


def test_criterion_04_fbm_spectral_representation():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(50):
        H = rng.uniform(0.05, 0.95)
        s, t = rng.uniform(0.5, 4.0, 2)
        spectral, closed = rf.fbm_spectral_cov_check(H, s, t)
        worst = max(worst, abs(spectral - closed))
    ok = worst <= 1e-4
    _report(4, ok, f"50 random (H,s,t): max |spectral - closed| "
                   f"= {worst:.3e} (tol 1e-4)")


def test_criterion_05_mild_criterion():
    grid = np.linspace(-3.0, 3.0, 21)
    lags = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    worst = 0.0
    for H in ((0.3, 0.7), (0.5, 0.5), (0.25, 0.25)):
        for theta in (-1.0, -0.5, 0.5, 1.0):
            worst = max(worst, np.max(np.abs(rf.mild_criterion_residual(
                lambda v: rf.c_theta(H[0], H[1], theta, v), H, lags))))
    ok = worst <= 1e-12
    _report(5, ok, f"sign-symmetrization residual over 12 parameter sets x "
                   f"21x21 grid: max {worst:.3e} (tol 1e-12)")


def test_criterion_06_increment_algebra():
    rng = np.random.default_rng(106)
    worst_var = 0.0
    for kernel, H in ((rf.make_kernel(rf.FBS((0.3, 0.7))), (0.3, 0.7)),
                      (rf.make_kernel(rf.Strict2D(0.3, 0.7, 0.8)), (0.3, 0.7))):
        for _ in range(100):
            s = rng.uniform(0.0, 2.0, 2)
            t = s + rng.uniform(0.05, 2.0, 2)
            r = rf.Rectangle(s, t)
            got = rf.increment_cov(kernel, r, r)
            want = math.prod((t[k] - s[k]) ** (2 * H[k]) for k in range(2))
            worst_var = max(worst_var, abs(got - want) / want)
    worst_closed = 0.0
    for _ in range(100):
        theta = rng.uniform(-1.0, 1.0)
        h = rng.uniform(0.0, 3.0, 2)
        s = rng.uniform(0.05, 2.0, 2)
        t = s + rng.uniform(0.05, 2.0, 2)
        kernel = rf.make_kernel(rf.YHalf(theta))
        got = rf.increment_cov(kernel, rf.Rectangle(h, s + h),
                               rf.Rectangle(h, t + h))
        want = rf.y_half_increment_cov_closed(theta, h, s, t)
        worst_closed = max(worst_closed, abs(got - want) / abs(want))
    ok = worst_var <= 1e-10 and worst_closed <= 1e-10
    _report(6, ok, f"increment variance law rel err {worst_var:.3e}, "
                   f"shifted-increment closed form rel err {worst_closed:.3e} "
                   f"(tol 1e-10)")


def test_criterion_07_class_separation():
    t0 = time.monotonic()
    lab_fbs = rf.classify_stationarity(
        rf.make_kernel(rf.FBS((0.3, 0.7)))).require_label()
    lab_s2d = rf.classify_stationarity(
        rf.make_kernel(rf.Strict2D(0.3, 0.7, 0.5))).require_label()
    lab_y = rf.classify_stationarity(
        rf.make_kernel(rf.YHalf(1.0))).require_label()
    labels_ok = (lab_fbs is rf.StationarityClass.STRICT_WIDE
                 and lab_s2d is rf.StationarityClass.STRICT_WIDE
                 and lab_y is rf.StationarityClass.MILD_ONLY)

    # closed-form non-independence covariances over disjoint boxes
    t1, t2, n = 1.0, 1.5, 20000
    r1 = rf.Rectangle((0.0, 0.0), (t1, t2))
    r2 = rf.Rectangle((t1, 0.0), (2 * t1, 2 * t2))
    ky, kz = rf.make_kernel(rf.YHalf(1.0)), rf.make_kernel(rf.ZHalf(1.0))
    want_y = t1 * t2 / 16.0
    want_z = 4 * math.log(2.0) ** 2 / math.pi ** 2 * t1 * t2
    closed_ok = (rf.increment_cov(ky, r1, r2) == pytest.approx(want_y, rel=1e-12)
                 and rf.increment_cov(kz, r1, r2) == pytest.approx(want_z, rel=1e-12))

    # Monte Carlo confirmation within 4 SE
    mc_ok = True
    for kernel, want in ((ky, want_y), (kz, want_z)):
        pts = {}
        for pt, _ in (rf.corner_expansion(r1) + rf.corner_expansion(r2)):
            if all(c > 0 for c in pt) and pt not in pts:
                pts[pt] = len(pts)
        grid = rf.Grid(np.array(list(pts)))
        M = rf.cov_matrix(kernel, grid)
        vals, _ = rf.cholesky_sample(M, seed=107, n_samples=n)

        def inc(rect):
            out = np.zeros(n)
            for pt, sg in rf.corner_expansion(rect):
                if pt in pts:
                    out += sg * vals[:, pts[pt]]
            return out

        est = float(inc(r1) @ inc(r2)) / n
        v1 = rf.increment_cov(kernel, r1, r1)
        v2 = rf.increment_cov(kernel, r2, r2)
        se = math.sqrt((v1 * v2 + want ** 2) / n)
        mc_ok = mc_ok and abs(est - want) <= 4 * se
    elapsed = time.monotonic() - t0
    ok = labels_ok and closed_ok and mc_ok and elapsed < 120.0
    _report(7, ok, f"labels (strict/strict/mild): "
                   f"{lab_fbs.value}/{lab_s2d.value}/{lab_y.value}; "
                   f"disjoint-box covariances exact and within 4 SE at "
                   f"n=20000; {elapsed:.1f}s")


def test_criterion_08_moving_average_equivalence():
    rng = np.random.default_rng(108)
    spec = rf.MovingPair(0.3, 0.7, 1.0, 0.0)
    worst_fbs = 0.0
    for _ in range(20):
        s = rng.uniform(0.3, 2.5, 2)
        t = rng.uniform(0.3, 2.5, 2)
        got = rf.cov_moving_pair(spec, s, t)
        worst_fbs = max(worst_fbs, abs(got - rf.cov_fbs((0.3, 0.7), s, t)))

    sin2 = math.sin(math.pi * 0.3) * math.sin(math.pi * 0.7)
    worst_var = 0.0
    for d0 in (1.0, 0.4, -0.6):
        d1 = -d0 * sin2 + math.sqrt(d0 * d0 * (sin2 ** 2 - 1.0) + 1.0)
        sp = rf.MovingPair(0.3, 0.7, d0, d1)
        worst_var = max(worst_var,
                        abs(rf.cov_moving_pair(sp, (1, 1), (1, 1)) - 1.0))

    half = rf.MovingPair(0.5, 0.5, 0.0, 1.0)
    half_err = abs(rf.cov_moving_pair(half, (1, 1), (1, 1)) - 1.0)
    ok = worst_fbs <= 1e-3 and worst_var <= 1e-3 and half_err <= 1e-3
    _report(8, ok, f"pure-past pair vs sheet covariance max err "
                   f"{worst_fbs:.3e}; unit variance on constraint curve max "
                   f"err {worst_var:.3e}; log-pair variance err "
                   f"{half_err:.3e} (tol 1e-3)")


def test_criterion_09_simulation_fidelity():
    axes = [[0.5, 1.0, 1.5, 2.0, 2.5]] * 2
    grid = rf.grid_from_axes(axes)
    specs = [rf.FBS((0.3, 0.7)), rf.Strict2D(0.3, 0.7, 0.5),
             rf.MildTheta(0.3, 0.7, 0.5), rf.YHalf(1.0), rf.ZHalf(1.0)]
    fracs = []
    for spec in specs:
        batch = rf.sample_field(spec, grid, seed=109, n_samples=5000)
        analytic = rf.cov_matrix(rf.make_kernel(spec), grid)
        emp, se = rf.empirical_cov(batch, analytic)
        z = np.abs(emp - analytic) / se
        iu = np.triu_indices(grid.n_points)
        fracs.append(float(np.mean(z[iu] <= 4.0)))
    coverage_ok = all(f >= 0.95 for f in fracs)

    b1 = rf.sample_field(rf.YHalf(1.0), grid, seed=109, n_samples=1000)
    b2 = rf.sample_field(rf.YHalf(1.0), grid, seed=109, n_samples=1000)
    b4 = rf.sample_field(rf.YHalf(1.0), grid, seed=109, n_samples=1000,
                         n_workers=4)
    repro_ok = (np.array_equal(b1.values, b2.values)
                and np.array_equal(b1.values, b4.values))
    ok = coverage_ok and repro_ok
    _report(9, ok, f"within-4-SE fractions per family {fracs}; bitwise "
                   f"reproducibility across reruns and 1-vs-4 workers: "
                   f"{repro_ok}")


def test_criterion_10_partial_sum_limit():
    t0 = time.monotonic()
    axes = (0.5, 1.0, 1.5, 2.0)
    t_points = [(a, b) for a in axes for b in axes]
    demo = rf.limit_partial_sums(256, 256, t_points, seed=110, n_reps=2000)
    err = np.abs(demo.emp_cov - demo.limit_cov)
    bound = 0.05 * np.abs(demo.limit_cov) + 4.0 * demo.se
    n_bad = int(np.sum(err > bound))
    elapsed = time.monotonic() - t0
    ok = n_bad == 0 and elapsed < 300.0
    _report(10, ok, f"{len(t_points)}^2 covariance entries within "
                    f"5% + 4 SE of the sheet limit ({n_bad} outside); "
                    f"{elapsed:.1f}s")
