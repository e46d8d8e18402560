"""Exact sampling, Monte Carlo estimators, partial-sum demonstration."""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

import oracle
from rectfield import kernels, simulate
from rectfield.increments import ProbePlan, Rectangle, _corners, corner_expansion
from rectfield.kernels import (
    FBS,
    SEAM_DELTA,
    MildTheta,
    MovingPair,
    NonFiniteError,
    Strict2D,
    StrictGeneral,
    StrictWeights,
    YHalf,
    ZHalf,
    make_kernel,
)
from rectfield.simulate import (
    CHUNK_SIZE,
    Grid,
    PSDError,
    SampleBatch,
    cholesky_sample,
    cov_matrix,
    empirical_cov,
    grid_from_axes,
    limit_partial_sums,
    mc_increment_stationarity,
    sample_field,
)
from rectfield.simulate import _blocks, _chunk_keys, _probe_corners, _rect_sums


def test_grid_validation():
    Grid(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError, match="positive"):
        Grid(np.array([[0.0, 1.0]]))
    with pytest.raises(ValueError, match="duplicate"):
        Grid(np.array([[1.0, 1.0], [1.0, 1.0]]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            Grid(np.array([[1.0, 2.0], [bad, 1.0]]))


def test_grid_and_demo_points_are_lists_of_points():
    # a 3-D point array and an empty one reached cov_matrix and the demo's
    # cell sums, which failed there with an unrelated numpy error
    with pytest.raises(ValueError, match="list of points"):
        Grid(np.ones((1, 2, 2)))
    for t in (np.ones((1, 1, 2)), np.zeros((0, 2))):
        with pytest.raises(ValueError, match="list of points"):
            limit_partial_sums(8, 8, t, n_reps=2)


def test_standard_errors_do_not_overflow():
    # var_i var_j overflowed to inf for variances near 1e180, which made
    # every z = 0 and the simulate gate pass whatever the draws
    batch = sample_field(FBS((0.3, 0.7)), grid_from_axes([[1.0, 2.0], [1.0, 2.0]]),
                         seed=3, n_samples=100)
    emp, se = empirical_cov(batch, batch.cov)
    scale = 1e180
    _, se_big = empirical_cov(
        SampleBatch(batch.seed, batch.grid, batch.values * math.sqrt(scale),
                    batch.spec), batch.cov * scale)
    assert np.all(np.isfinite(se_big))
    assert np.allclose(se_big / scale, se, rtol=1e-14, atol=0)
    K = batch.cov
    assert np.allclose(se, np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2)
                                   / 100), rtol=1e-14, atol=0)


def test_grid_from_axes():
    g = grid_from_axes([[1.0, 2.0], [3.0, 4.0, 5.0]])
    assert g.n_points == 6
    assert g.dim == 2
    assert (g.points[0] == [1.0, 3.0]).all()


def test_cov_matrix_examples():
    k = make_kernel(FBS((0.5, 0.5)))
    M = cov_matrix(k, Grid(np.array([[1.0, 1.0], [2.0, 2.0]])))
    assert M == pytest.approx(np.array([[1.0, 1.0], [1.0, 4.0]]))

    ky = make_kernel(YHalf(1.0))
    M = cov_matrix(ky, Grid(np.array([[1.0, 1.0], [2.0, 2.0]])))
    assert M == pytest.approx(np.array([[1.0, 17 / 16], [17 / 16, 4.0]]))

    k37 = make_kernel(FBS((0.3, 0.7)))
    M = cov_matrix(k37, Grid(np.array([[1.5, 0.5]])))
    assert M[0, 0] == pytest.approx(1.5 ** 0.6 * 0.5 ** 1.4, rel=1e-13)


def test_cholesky_sample_identity_matrix():
    n = 10_000
    vals, jitter = cholesky_sample(np.eye(3), seed=1, n_samples=n)
    assert vals.shape == (n, 3)
    assert jitter == 0.0
    emp = vals.T @ vals / n
    assert np.all(np.abs(np.diag(emp) - 1.0) <= 4.0 * math.sqrt(2.0 / n))
    off = emp[np.triu_indices(3, k=1)]
    assert np.all(np.abs(off) <= 4.0 / math.sqrt(n))


def test_cholesky_sample_empty():
    vals, _ = cholesky_sample(np.eye(2), seed=1, n_samples=0)
    assert vals.shape == (0, 2)


def test_cholesky_sample_deterministic():
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    a, _ = cholesky_sample(M, seed=9, n_samples=700)
    b, _ = cholesky_sample(M, seed=9, n_samples=700)
    c, _ = cholesky_sample(M, seed=9, n_samples=700, n_workers=4)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)
    d, _ = cholesky_sample(M, seed=10, n_samples=700)
    assert not np.array_equal(a, d)


# seeds of 1 to 5 uint32 words, and streams of 1 and 2 words
_KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**96 + 5, 2**128 - 1,
              2**128, 2**130 + 7, 12345678901234567890]
_KEY_STREAMS = [0, 1, 7, 2**32 - 1, 2**32, 2**33 + 5, 2**40]


@pytest.mark.parametrize("seed", _KEY_SEEDS)
def test_chunk_keys_are_numpys_seed_sequence_keys(seed):
    # one pass over the chunk words gives every key that a SeedSequence
    # spawned at (stream, chunk) hands Philox
    for stream in _KEY_STREAMS:
        keys = _chunk_keys(seed, stream, 40)
        assert keys.shape == (40, 2)
        for c, key in enumerate(keys):
            want = np.random.SeedSequence(
                seed, spawn_key=(stream, c)).generate_state(2, np.uint64)
            assert np.array_equal(key, want), (seed, stream, c)
    assert _chunk_keys(seed, 3, 0).shape == (0, 2)


@pytest.mark.parametrize("n_workers", [1, 2, 4])
@pytest.mark.parametrize("stream", [0, 5, 2**33])
def test_draws_keep_the_bits_of_one_seed_sequence_per_chunk(n_workers,
                                                            stream):
    # a 3 x 3 matrix over four chunks, and a 31 x 31 one with a last chunk
    # of one row, a matrix-vector product whose bits the oracle keeps only
    # with a contiguous L^T, as the sampler holds it
    A = np.random.default_rng(31).standard_normal((31, 31))
    for M, n in ((np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2],
                            [0.1, 0.2, 0.7]]), 3 * CHUNK_SIZE + 5),
                 (A @ A.T + 31.0 * np.eye(31), 1),
                 (A @ A.T + 31.0 * np.eye(31), CHUNK_SIZE + 1)):
        got, _ = cholesky_sample(M, 2**70 + 11, n, n_workers=n_workers,
                                 stream=stream)
        assert np.array_equal(got, oracle.cholesky_draws(M, 2**70 + 11, n,
                                                         stream))


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 4000])
def test_draws_are_each_chunks_own_product(n, n_workers):
    # each chunk's rows are its normals times L^T, one matmul per chunk
    # with the same shapes (a one-row chunk is a matrix-vector product,
    # whose bits differ from a row of a matrix product), at every worker
    # count; L^T is contiguous, as the sampler holds it
    rng = np.random.default_rng(n)
    A = rng.standard_normal((31, 31))
    M = A @ A.T + 31.0 * np.eye(31)
    got, jitter = cholesky_sample(M, 77, n, n_workers=n_workers, stream=3)
    Lt = np.linalg.cholesky(M).T.copy()
    keys = _chunk_keys(77, 3, -(-n // CHUNK_SIZE))
    want = np.concatenate([
        simulate._chunk_generator(key).standard_normal(
            (min(CHUNK_SIZE, n - lo), 31)) @ Lt
        for key, lo in zip(keys, range(0, n, CHUNK_SIZE))])
    assert jitter == 0.0
    assert np.array_equal(got, want)


def test_seeds_must_be_integers():
    # int(seed) truncated: seed 2.7 drew seed 2's bits
    M = np.eye(2)
    grid = grid_from_axes([[1.0, 2.0]] * 2)
    plan = ProbePlan.default(2, n_pairs=1, n_shifts=1, seed=3)
    for draw in (lambda seed: cholesky_sample(M, seed, 10)[0],
                 lambda seed: sample_field(FBS((0.3, 0.7)), grid, seed,
                                           10).values,
                 lambda seed: [r["estimate"] for r in
                               mc_increment_stationarity(
                                   FBS((0.3, 0.7)), plan=plan, seed=seed,
                                   n_samples=10)],
                 lambda seed: limit_partial_sums(4, 4, [(1.0, 1.0)],
                                                 seed=seed,
                                                 n_reps=10).emp_cov):
        for seed in (2.7, 2.0):
            with pytest.raises(TypeError):
                draw(seed)
        assert np.array_equal(draw(np.int64(2)), draw(2))


@pytest.mark.parametrize("n_workers, error", [
    (0, ValueError), (-1, ValueError), (simulate.MAX_WORKERS + 1, ValueError),
    (2.5, TypeError)])
def test_worker_counts_outside_the_bound_raise_before_any_work(
        monkeypatch, n_workers, error):
    # only the CLI checked MAX_WORKERS: a library call started min(n_workers,
    # chunks) threads, ran one thread for n_workers <= 0 and took 2.5
    def no_work(*args, **kwargs):
        raise AssertionError("factored a matrix or started a pool")

    import concurrent.futures   # the sampler imports its pool at first use

    monkeypatch.setattr(simulate, "_factor_with_jitter", no_work)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_work)
    grid = grid_from_axes([[1.0, 2.0]] * 2)
    plan = ProbePlan.default(2, n_pairs=1, n_shifts=1, seed=3)
    for draw in (lambda: cholesky_sample(np.eye(2), 0, 10,
                                         n_workers=n_workers),
                 lambda: sample_field(FBS((0.3, 0.7)), grid, 0, 10,
                                      n_workers=n_workers),
                 lambda: mc_increment_stationarity(
                     FBS((0.3, 0.7)), plan=plan, n_samples=10,
                     n_workers=n_workers)):
        with pytest.raises(error):
            draw()
    with pytest.raises(ValueError, match=re.escape(
            f"n_workers must lie in [1, {simulate.MAX_WORKERS}], got 0")):
        cholesky_sample(np.eye(2), 0, 10, n_workers=0)


@pytest.mark.parametrize("bad, at", [(math.nan, (0, 0)), (math.inf, (1, 1)),
                                     (-math.inf, (0, 1))])
def test_cholesky_sample_rejects_non_finite_matrices(monkeypatch, bad, at):
    # a NaN matrix drew NaN rows with jitter 0.0, an inf diagonal +-inf
    # columns
    def no_factor(*args):
        raise AssertionError("factored a non-finite matrix")

    monkeypatch.setattr(simulate, "_factor_with_jitter", no_factor)
    M = np.eye(2)
    M[at] = bad
    with pytest.raises(NonFiniteError, match=re.escape(
            f"covariance of grid has the non-finite entry {bad} at {at}")):
        cholesky_sample(M, 0, 3, context="grid")
    with pytest.raises(NonFiniteError, match="matrix has the non-finite"):
        cholesky_sample(np.array([[bad]]), 0, 0)


def test_cholesky_pool_has_no_more_threads_than_chunks(monkeypatch):
    import concurrent.futures   # the sampler imports its pool at first use

    sizes = []
    real = concurrent.futures.ThreadPoolExecutor
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda n: sizes.append(n) or real(n))
    M = np.array([[2.0, 0.5], [0.5, 1.0]])
    n = CHUNK_SIZE + 1   # two chunks
    a, _ = cholesky_sample(M, seed=9, n_samples=n, n_workers=8)
    b, _ = cholesky_sample(M, seed=9, n_samples=n)
    assert sizes == [2]
    assert np.array_equal(a, b)


def test_cholesky_jitter_retry():
    # exactly singular but PSD: one jitter retry must succeed
    M = np.array([[1.0, 1.0], [1.0, 1.0]])
    vals, jitter = cholesky_sample(M, seed=2, n_samples=50)
    assert vals.shape == (50, 2)
    assert jitter > 0.0


def test_cholesky_rejects_indefinite():
    M = np.array([[1.0, 2.0], [2.0, 1.0]])
    with pytest.raises(PSDError, match="eigenvalue"):
        cholesky_sample(M, seed=3, n_samples=10, context="synthetic spec")


def test_empirical_cov_small_sample():
    batch = sample_field(FBS((0.5, 0.5)),
                         grid_from_axes([[1.0, 2.0], [1.0, 2.0]]),
                         seed=4, n_samples=2)
    emp, se = empirical_cov(batch)
    assert emp.shape == (4, 4)
    assert np.all(np.isfinite(se))
    with pytest.raises(ValueError):
        empirical_cov(sample_field(FBS((0.5, 0.5)),
                                   grid_from_axes([[1.0], [1.0]]),
                                   seed=4, n_samples=1))


def test_empirical_cov_matches_kernel():
    spec = FBS((0.3, 0.7))
    grid = grid_from_axes([[0.5, 1.5, 2.5], [0.5, 1.5, 2.5]])
    batch = sample_field(spec, grid, seed=5, n_samples=4000)
    analytic = cov_matrix(make_kernel(spec), grid)
    emp, se = empirical_cov(batch, analytic)
    z = np.abs(emp - analytic) / se
    iu = np.triu_indices(grid.n_points)
    assert np.mean(z[iu] <= 4.0) >= 0.95


def test_sampling_other_dimensions():
    # evaluation and sampling are dimension-generic
    b1 = sample_field(FBS((0.7,)), grid_from_axes([[0.5, 1.0, 2.0]]),
                      seed=15, n_samples=500)
    assert b1.values.shape == (500, 3)
    b3 = sample_field(FBS((0.3, 0.5, 0.8)),
                      grid_from_axes([[1.0, 2.0]] * 3), seed=15, n_samples=200)
    assert b3.values.shape == (200, 8)
    emp, se = empirical_cov(b3)
    assert np.all(np.isfinite(se))


def test_mc_increment_fbs_no_shift_dependence():
    rows = mc_increment_stationarity(FBS((0.5, 0.5)), seed=6, n_samples=4000)
    assert len(rows) > 0
    frac = np.mean([abs(r["z_reference"]) <= 4.0 for r in rows])
    assert frac >= 0.95
    # analytic shifted covariance equals the reference for a strict family
    for r in rows:
        assert r["analytic"] == pytest.approx(r["reference"], abs=1e-10)


def test_mc_increment_yhalf_detects_shift_dependence():
    # disjoint-box probe with a strong anchor effect
    rows = mc_increment_stationarity(YHalf(1.0), seed=7, n_samples=20000)
    # estimates track the analytic (shifted) value ...
    frac = np.mean([abs(r["z_analytic"]) <= 4.0 for r in rows])
    assert frac >= 0.95
    # ... and the analytic value genuinely moves for some cross probes
    assert any(abs(r["analytic"] - r["reference"]) > 1e-3
               for r in rows if r["kind"] == "cross")
    # while variances stay anchored (mild stationarity)
    for r in rows:
        if r["kind"] == "var":
            assert r["analytic"] == pytest.approx(r["reference"], rel=1e-10)


def test_mc_disjoint_increment_covariance():
    # Monte Carlo vs the closed disjoint-box covariances
    from rectfield.increments import Rectangle, corner_expansion

    t1, t2, n = 1.0, 1.0, 20000
    for spec, want in ((YHalf(1.0), t1 * t2 / 16.0),
                       (ZHalf(1.0), 4 * math.log(2.0) ** 2 / math.pi ** 2)):
        r1 = Rectangle((0.0, 0.0), (t1, t2))
        r2 = Rectangle((t1, 0.0), (2 * t1, 2 * t2))
        pts = {}
        for pt, _ in corner_expansion(r1) + corner_expansion(r2):
            if all(c > 0 for c in pt) and pt not in pts:
                pts[pt] = len(pts)
        grid = Grid(np.array(list(pts)))
        batch = sample_field(spec, grid, seed=8, n_samples=n)

        def inc(rect):
            out = np.zeros(n)
            for pt, sg in corner_expansion(rect):
                if pt in pts:
                    out += sg * batch.values[:, pts[pt]]
            return out

        est = float(inc(r1) @ inc(r2)) / n
        kernel = make_kernel(spec)
        from rectfield.increments import increment_cov
        v1 = increment_cov(kernel, r1, r1)
        v2 = increment_cov(kernel, r2, r2)
        se = math.sqrt((v1 * v2 + want ** 2) / n)
        assert abs(est - want) <= 4.0 * se


def test_limit_partial_sums_variance():
    demo = limit_partial_sums(256, 256, [(1.0, 1.0)], seed=9, n_reps=400)
    # pre-limit variance is exactly (floor(r)+1)^2 / r^2
    want = (257 / 256) ** 2
    assert demo.exact_cov[0, 0] == pytest.approx(want, rel=1e-14)
    assert abs(demo.emp_cov[0, 0] - want) <= 4.0 * demo.se[0, 0]
    assert demo.limit_cov[0, 0] == 1.0


def test_limit_partial_sums_covariance_structure():
    demo = limit_partial_sums(128, 128, [(1.0, 1.0), (1.0, 2.0)], seed=10,
                              n_reps=400)
    # covariance of overlapping boxes tends to the min product
    assert demo.limit_cov[0, 1] == 1.0
    assert abs(demo.emp_cov[0, 1] - demo.exact_cov[0, 1]) <= 4 * demo.se[0, 1]


def test_limit_partial_sums_deterministic():
    a = limit_partial_sums(64, 64, [(1.0, 1.0)], seed=11, n_reps=1)
    b = limit_partial_sums(64, 64, [(1.0, 1.0)], seed=11, n_reps=1)
    assert np.array_equal(a.emp_cov, b.emp_cov)


def test_limit_partial_sums_guards():
    with pytest.raises(ValueError):
        limit_partial_sums(1024, 64, [(1.0, 1.0)])
    # a far point is one cell of 2,560,001^2 sites: no lattice is built
    demo = limit_partial_sums(512, 512, [(5000.0, 5000.0)])
    assert demo.exact_cov[0, 0] == pytest.approx(((2_560_000 + 1) / 512) ** 2,
                                                 rel=1e-15)
    assert abs(demo.emp_cov[0, 0] - demo.exact_cov[0, 0]) <= 4 * demo.se[0, 0]
    # floor(1e17 * 512) would wrap in int64 and give a wrong exact_cov
    with pytest.raises(ValueError, match="floor"):
        limit_partial_sums(512, 512, [(1, 1), (1e17, 1e17)], n_reps=4)


@pytest.mark.parametrize("n", [0, -1])
def test_limit_rejects_fewer_than_one_replication_before_drawing(
        monkeypatch, n):
    # n_reps = 0 returned NaN covariances, with a RuntimeWarning from 0/0
    def no_draw(*args, **kwargs):
        raise AssertionError("reached a draw")

    monkeypatch.setattr(simulate, "_chunk_generator", no_draw)
    with pytest.raises(ValueError, match=f"n_reps must be at least 1, "
                                         f"got {n}"):
        limit_partial_sums(4, 4, [(1, 1)], n_reps=n)


def _lattice_partial_sums(Y, k1, k2):
    """Oracle: sums of the lattice Y[..., 0..k1, 0..k2], site by site."""
    return Y.cumsum(axis=-2).cumsum(axis=-1)[..., k1, k2]


def test_limit_cell_sums_match_the_lattice():
    # unsorted points, zero coordinates, several points per floor index
    r = 5
    t = np.array([[0.9, 0.5], [0.0, 1.0], [0.45, 0.0], [0.5, 0.59],
                  [1.0, 0.2], [0.0, 0.0], [0.5, 1.0], [0.3, 0.59]])
    k1 = np.floor(t[:, 0] * r).astype(int)
    k2 = np.floor(t[:, 1] * r).astype(int)
    Y = np.random.default_rng(3).standard_normal((4, k1.max() + 1,
                                                  k2.max() + 1))
    (n1, b1), (n2, b2) = _blocks(k1), _blocks(k2)
    assert n1.sum() == k1.max() + 1 and n2.sum() == k2.max() + 1
    cells = np.add.reduceat(Y, np.cumsum(n1) - n1, axis=1)
    cells = np.add.reduceat(cells, np.cumsum(n2) - n2, axis=2)
    assert cells.shape == (4, len(set(k1)), len(set(k2)))
    got = _rect_sums(cells, b1, b2)
    assert np.max(np.abs(got - _lattice_partial_sums(Y, k1, k2))) <= 1e-12


def test_limit_partial_sums_follow_the_lattice_law():
    # at small r the pre-limit covariance differs from the sheet by up to
    # 1/r per axis, so a wrong block size or scale shifts the z-scores
    pts = [(0.5, 0.5), (1.0, 0.25), (0.75, 1.0), (0.25, 1.0)]
    z = []
    for seed in range(300):
        d = limit_partial_sums(8, 4, pts, seed=seed, n_reps=200)
        iu = np.triu_indices(len(pts))
        z.extend(((d.emp_cov - d.exact_cov) / d.se)[iu])
    z = np.asarray(z)
    assert abs(z.mean()) <= 0.2
    assert abs(z.std() - 1.0) <= 0.12


def test_limit_partial_sums_same_seed_same_bits():
    pts = [(1.0, 0.5), (0.25, 2.0), (1.5, 1.5)]
    n_reps = 2 * CHUNK_SIZE + 3
    a = limit_partial_sums(64, 32, pts, seed=12, n_reps=n_reps)
    b = limit_partial_sums(64, 32, pts, seed=12, n_reps=n_reps)
    assert np.array_equal(a.emp_cov, b.emp_cov)
    c = limit_partial_sums(64, 32, pts, seed=13, n_reps=n_reps)
    assert not np.array_equal(a.emp_cov, c.emp_cov)
    # chunk c holds replications [c CHUNK_SIZE, (c+1) CHUNK_SIZE) drawn from
    # the Philox stream keyed (seed, 0, c), one normal per cell, row-major
    n1, b1 = _blocks(np.array([64, 16, 96]))   # floor(t1 * 64)
    n2, b2 = _blocks(np.array([16, 64, 48]))   # floor(t2 * 32)
    z = np.concatenate([
        oracle._stream(12, 0, c).standard_normal(
            (min(CHUNK_SIZE, n_reps - lo), 3, 3))
        for c, lo in enumerate(range(0, n_reps, CHUNK_SIZE))])
    v = _rect_sums(z * np.sqrt(np.outer(n1, n2) / (64 * 32)), b1, b2)
    assert np.allclose(a.emp_cov, v.T @ v / n_reps, rtol=1e-13, atol=0)


def test_cov_matrix_names_the_first_non_finite_pair(monkeypatch):
    # 1e200^1.8 overflows, so K(p, q) is NaN for every pair with q = big
    k = make_kernel(FBS((0.9, 0.5)))
    pts = np.array([[1.0, 1.0], [2.0, 2.0], [1e200, 1.0]])
    with pytest.raises(ValueError, match="non-finite") as err:
        cov_matrix(k, Grid(pts))
    assert f"{pts[0]}, {pts[2]}" in str(err.value)

    # across row blocks: a NaN at (p_i, p_j) with i < j is named; a NaN only
    # at (p_j, p_i) is never evaluated, since M[j, i] mirrors M[i, j]; the
    # points lie on a diagonal, no mesh of axes, so each pair is evaluated
    grid = Grid(np.column_stack([np.linspace(0.1, 3.0, 300),
                                 np.linspace(1.0, 2.0, 300)]))
    p, q = grid.points[150], grid.points[200]
    base = make_kernel(FBS((0.3, 0.7)))
    clean = cov_matrix(base, grid)

    def poisoned(first, second):
        _replace_kernel(monkeypatch, lambda exact: lambda s, t: np.where(
            np.all(s == first, axis=-1) & np.all(t == second, axis=-1),
            np.nan, exact(s, t)))

    poisoned(p, q)
    with pytest.raises(ValueError) as err:
        cov_matrix(base, grid)
    assert f"{p}, {q}" in str(err.value)
    monkeypatch.undo()
    poisoned(q, p)
    M = cov_matrix(base, grid)
    assert np.array_equal(M, clean)
    assert np.array_equal(M, M.T)


def _dense_cov(monkeypatch, kernel, grid):
    """``cov_matrix`` on its dense route, every pair through the kernel."""
    with monkeypatch.context() as m:
        m.setattr(simulate, "_tensor_axes", lambda pts: None)
        return cov_matrix(kernel, grid)


_SEAM = 0.5 + SEAM_DELTA / 2   # within SEAM_DELTA of 1/2
_AXIS_SPECS = [
    FBS((0.3, 0.7)), FBS((0.5, 0.5)), FBS((_SEAM, 1.0 - _SEAM)),
    FBS((0.3, 0.5, 0.8)), Strict2D(0.3, 0.7, 0.5), Strict2D(0.52, 0.5, -0.4),
    StrictGeneral((0.3, _SEAM, 0.8), StrictWeights(dict(zip(
        itertools.product((1, -1), repeat=3),
        [0.2, 0.15, 0.1, 0.05, 0.05, 0.1, 0.15, 0.2])))),
    MildTheta(0.3, 0.7, 0.8), MildTheta(0.5, _SEAM, -0.6), YHalf(0.7),
    ZHalf(0.5), MovingPair(0.5, 0.5, 0.6, 0.8),
]


@pytest.mark.parametrize("spec", _AXIS_SPECS, ids=lambda s: s.family)
def test_cov_matrix_on_axes_has_the_dense_bits(monkeypatch, spec):
    # unsorted axes whose mesh spans two row blocks (13 x 11 = 143 points
    # in 2-D, 4 x 5 x 7 = 140 in 3-D); the axis route gives the dense
    # route's bits, signed zeros included
    rng = np.random.default_rng(31)
    sizes = (13, 11) if len(spec.hurst) == 2 else (4, 5, 7)
    axes = [rng.permutation(np.linspace(0.05, 3.0, k) + rng.uniform(
        0.0, 0.01, k)) for k in sizes]
    grid = grid_from_axes(axes)
    found = simulate._tensor_axes(grid.points)
    assert all(np.array_equal(a, b) for a, b in zip(found, axes))
    kernel = make_kernel(spec)
    M, dense = cov_matrix(kernel, grid), _dense_cov(monkeypatch, kernel, grid)
    assert np.array_equal(M, dense)
    assert np.array_equal(np.signbit(M), np.signbit(dense))
    assert np.array_equal(M, M.T)


def test_cov_matrix_takes_the_axis_route_on_a_mesh_only(monkeypatch):
    calls = []
    real = simulate._axis_letters
    monkeypatch.setattr(simulate, "_axis_letters",
                        lambda *args: calls.append(1) or real(*args))
    kernel = make_kernel(Strict2D(0.3, 0.7, 0.5))
    grid = grid_from_axes([[2.0, 0.5, 1.0, 1.7], [1.5, 0.7, 2.2]])
    M = cov_matrix(kernel, grid)
    assert calls == [1]
    # a shuffled copy is no mesh of axes, and takes the dense route
    order = np.random.default_rng(5).permutation(grid.n_points)
    shuffled = Grid(grid.points[order])
    assert simulate._tensor_axes(shuffled.points) is None
    S = cov_matrix(kernel, shuffled)
    assert calls == [1]
    assert np.allclose(S, M[np.ix_(order, order)], rtol=1e-14, atol=0)
    # a point list with a mesh's coordinate counts but not its points
    assert simulate._tensor_axes(np.array([[1.0, 1.0], [1.0, 2.0],
                                           [2.0, 2.0], [2.0, 3.0]])) is None
    assert simulate._tensor_axes(np.array([[1.0, 1.0], [2.0, 2.0]])) is None
    # one point and one coordinate are meshes too
    for pts in (np.array([[1.5, 2.0]]), np.array([[2.0], [0.5], [1.0]])):
        axes = simulate._tensor_axes(pts)
        assert np.array_equal(grid_from_axes(axes).points, pts)


@pytest.mark.parametrize("axes, first", [
    # 1e200^1.8 overflows: every pair with a far first coordinate is NaN,
    # from row 0 on
    ([[1.0, 2.0, 1e200], [1.0, 2.0]], (0, 4)),
    # x^1.8 is finite but two of them overflow: only the pairs of far
    # points, all in the second row block (15 x 10 = 150 points)
    ([list(np.linspace(0.1, 3.0, 14)) + [(1.5e308) ** (1 / 1.8)],
      list(np.linspace(1.0, 2.0, 10))], (140, 140)),
])
def test_both_routes_name_the_same_first_non_finite_pair(monkeypatch, axes,
                                                         first):
    kernel = make_kernel(FBS((0.9, 0.5)))
    grid = grid_from_axes(axes)
    messages = []
    for route in (cov_matrix, lambda k, g: _dense_cov(monkeypatch, k, g)):
        with pytest.raises(NonFiniteError) as err:
            route(kernel, grid)
        messages.append(str(err.value))
    i, j = first
    assert messages[0] == messages[1]
    assert f"{grid.points[i]}, {grid.points[j]}" in messages[0]


def test_cov_matrix_on_axes_peaks_no_higher_than_the_dense_route(monkeypatch):
    # a 64 x 64 mesh: the axis route's two-term sum is written a row block
    # at a time, so it holds no whole-matrix temporary
    axis = np.linspace(0.1, 3.0, 64)
    grid = grid_from_axes([axis, axis])
    kernel = make_kernel(Strict2D(0.3, 0.7, 0.5))
    peaks = []
    for route in (cov_matrix, lambda k, g: _dense_cov(monkeypatch, k, g)):
        tracemalloc.start()
        try:
            M = route(kernel, grid)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        del M
    assert peaks[0] <= peaks[1], peaks


def test_cov_matrix_matches_the_scalar_kernel_across_row_blocks():
    # 150 points span two row blocks; M[i, j] = K(p_i, p_j) for i <= j, to
    # 1e-14 of max(|K|, prod_k max(p_k, q_k)^{2 H_k}) as for the kernels
    rng = np.random.default_rng(17)
    grid = Grid(rng.uniform(0.05, 3.0, size=(150, 2)))
    pts = grid.points
    i, j = np.triu_indices(len(pts))
    for spec in (ZHalf(0.7), Strict2D(0.3, 0.7, 0.5), MildTheta(0.3, 0.7, 0.5)):
        M = cov_matrix(make_kernel(spec), grid)
        ev = oracle.evaluator(spec)
        want = np.array([ev(pts[a], pts[b]) for a, b in zip(i, j)])
        scale = np.maximum(np.abs(want), np.prod(np.maximum(
            pts[i], pts[j]) ** (2 * np.array(spec.hurst)), axis=-1))
        assert np.array_equal(M, M.T)
        assert np.max(np.abs(M[i, j] - want) / scale) <= 1e-14


def test_mc_analytic_values_match_the_corner_loop():
    # reference, analytic and se of each row against scalar corner loops
    spec = MildTheta(0.3, 0.7, 0.8)
    ev = oracle.evaluator(spec)
    plan = ProbePlan.default(2, n_pairs=2, n_shifts=2, seed=5)
    rows = mc_increment_stationarity(spec, plan=plan, seed=3, n_samples=100)

    def loop(r1, r2):
        return sum(sg1 * sg2 * ev(p, q)
                   for p, sg1 in corner_expansion(r1)
                   for q, sg2 in corner_expansion(r2))

    zero = (0.0, 0.0)
    want = []
    for u1, u2 in plan.u_pairs:
        for kind, (a, b) in (("var", (u1, u1)), ("cross", (u1, u2))):
            ref = loop(Rectangle(zero, a), Rectangle(zero, b))
            for h in plan.shifts:
                r1 = Rectangle(zero, a).shifted(h)
                r2 = Rectangle(zero, b).shifted(h)
                c = loop(r1, r2)
                se = math.sqrt((loop(r1, r1) * loop(r2, r2) + c * c) / 100)
                want.append((kind, h, ref, c, se))
    assert [(r["kind"], r["h"]) for r in rows] == [w[:2] for w in want]
    for r, (_, _, ref, c, se) in zip(rows, want):
        assert r["reference"] == pytest.approx(ref, rel=1e-12)
        assert r["analytic"] == pytest.approx(c, rel=1e-12)
        assert r["se"] == pytest.approx(se, rel=1e-12)


_PLAN_ON_AXES = ProbePlan(u_pairs=(((0.6, 1.1), (1.4, 0.5)),
                                   ((1.0, 0.3), (0.4, 1.2))),
                          shifts=((0.0, 0.0), (0.0, 0.8), (1.3, 0.0)))
# equal boxes, boxes that share an edge length, and anchors on the axes:
# the probes draw at 1, 2, 3, 4 or 6 distinct corners
_PLAN_COINCIDENT = ProbePlan(u_pairs=(((0.6, 1.1), (0.6, 1.1)),
                                      ((1.0, 0.3), (1.0, 0.9)),
                                      ((0.4, 1.2), (1.5, 1.2))),
                             shifts=((0.0, 0.0), (0.5, 0.0), (0.2, 0.3)))


@pytest.mark.parametrize("spec, plan, n_workers", [
    (MildTheta(0.3, 0.7, 0.8), ProbePlan.default(2, 2, 3, seed=5), 1),
    (FBS((0.3, 0.6, 0.8)), ProbePlan.default(3, 2, 2, seed=6), 1),
    (Strict2D(0.5, 0.5 - SEAM_DELTA / 2, 0.5), ProbePlan.default(2, 2, 2,
                                                                 seed=7), 1),
    (MildTheta(0.3, 0.7, 0.8), _PLAN_ON_AXES, 1),
    (MildTheta(0.3, 0.7, 0.8), _PLAN_COINCIDENT, 1),
    (MildTheta(0.3, 0.7, 0.8), ProbePlan.default(2, 2, 3, seed=5), 3),
], ids=["2-D", "3-D", "H = 1/2 and within SEAM_DELTA", "corners on the axes",
        "coincident corners", "3 workers"])
def test_mc_draws_both_increments_from_one_stream_per_pair_and_shift(
        spec, plan, n_workers):
    # pair p and shift k draw once, from stream p S + k, at the sorted
    # distinct nonzero corners of both boxes; var and cross share the draw;
    # the probe-at-a-time reference draws with one worker
    rows = mc_increment_stationarity(spec, plan=plan, seed=4, n_samples=600,
                                     n_workers=n_workers)
    assert [r["estimate"] for r in rows] == oracle.mc_estimates(spec, plan,
                                                                4, 600)


@pytest.mark.parametrize("plan", [ProbePlan.default(3, 2, 2, seed=6),
                                  _PLAN_ON_AXES, _PLAN_COINCIDENT],
                         ids=["3-D", "corners on the axes",
                              "coincident corners"])
def test_the_corner_table_holds_each_probes_unique_live_corners(plan):
    pts, count, index, signs = _probe_corners(plan)
    n = len(plan.shifts[0])
    for q, (pair, h) in enumerate(itertools.product(plan.u_pairs,
                                                    plan.shifts)):
        corners, want_signs = _corners(h, np.add(h, pair))
        u, inverse = np.unique(corners.reshape(-1, n), axis=0,
                               return_inverse=True)
        live = np.all(u > 0.0, axis=1)
        assert count[q] == live.sum()
        assert np.array_equal(pts[q, :count[q]], u[live])
        assert np.all(pts[q, count[q]:] == 1.0)
        col = np.where(live, np.cumsum(live) - 1, -1)[inverse.ravel()]
        assert np.array_equal(index[q].ravel(), col)
        assert np.array_equal(signs, want_signs)
    if plan is _PLAN_COINCIDENT:
        assert sorted(set(count.tolist())) == [1, 2, 3, 4, 6]


def _replace_kernel(monkeypatch, batch):
    """Make every kernel's array form ``batch(exact)``, where ``exact(s, t)``
    is its own, by patching the evaluator ``kernels.cov_terms_array`` that
    ``CovKernel.batch`` looks up at each call."""
    real = kernels.cov_terms_array

    def fake(H, terms, s, t):
        return batch(lambda a, b: real(H, terms, a, b))(s, t)

    monkeypatch.setattr(kernels, "cov_terms_array", fake)


def test_mc_names_the_first_non_finite_corner_covariance(monkeypatch):
    # K(s, t) is NaN for s a corner of the second box only and t one of the
    # first box only: the increment covariances never take it, the sorted
    # corner matrix does (s < t), at row 3 and column 5 of the one probe
    u1, u2, h = (1.0, 1.0), (0.5, 2.0), (0.2, 0.3)
    s = np.array([h[0] + u2[0], h[1]])
    t = np.array([h[0] + u1[0], h[1]])

    def poisoned(exact):
        def batch(a, b):
            hit = np.all(a == s, axis=-1) & np.all(b == t, axis=-1)
            return np.where(hit, np.nan, exact(a, b))
        return batch

    _replace_kernel(monkeypatch, poisoned)
    spec = MildTheta(0.3, 0.7, 0.8)
    plan = ProbePlan(u_pairs=((u1, u2),), shifts=(h,))
    with pytest.raises(NonFiniteError) as err:
        mc_increment_stationarity(spec, plan=plan, seed=1, n_samples=50)
    assert str(err.value).endswith(f"{s}, {t}")
    with pytest.raises(NonFiniteError) as want:
        oracle.mc_estimates(spec, plan, 1, 50)
    assert str(err.value) == str(want.value)


def test_mc_corner_padding_is_never_named(monkeypatch):
    # the corner table pads with (1, 1), which no corner of this plan is;
    # a kernel that is NaN there draws as the spec's own kernel does
    def nan_at_ones(exact):
        def batch(a, b):
            hit = np.all(a == 1.0, axis=-1) | np.all(b == 1.0, axis=-1)
            return np.where(hit, np.nan, exact(a, b))
        return batch

    spec = MildTheta(0.3, 0.7, 0.8)
    want = oracle.mc_estimates(spec, _PLAN_COINCIDENT, 2, 50)
    _replace_kernel(monkeypatch, nan_at_ones)
    rows = mc_increment_stationarity(spec, plan=_PLAN_COINCIDENT, seed=2,
                                     n_samples=50)
    assert [r["estimate"] for r in rows] == want


@pytest.mark.parametrize("n", [0, -1])
def test_mc_rejects_fewer_than_one_sample_before_any_work(monkeypatch, n):
    # n_samples = 0 returned rows of NaN, with a RuntimeWarning from 0/0
    def no_work(*args, **kwargs):
        raise AssertionError("reached a kernel or a draw")

    monkeypatch.setattr(simulate, "make_kernel", no_work)
    monkeypatch.setattr(simulate, "cholesky_sample", no_work)
    with pytest.raises(ValueError, match=f"n_samples must be at least 1, "
                                         f"got {n}"):
        mc_increment_stationarity(FBS((0.3, 0.7)), n_samples=n)


def test_mc_names_the_family_of_a_matrix_that_is_not_psd(monkeypatch):
    _replace_kernel(monkeypatch, lambda exact: lambda a, b: -exact(a, b))
    with pytest.raises(PSDError, match="covariance of mildtheta has min"):
        mc_increment_stationarity(MildTheta(0.3, 0.7, 0.8), plan=_PLAN_ON_AXES,
                                  seed=1, n_samples=50)


def test_mc_rows_do_not_depend_on_the_worker_count():
    spec = Strict2D(0.3, 0.7, 0.5)
    plan = ProbePlan.default(2, n_pairs=2, n_shifts=2, seed=8)
    one = mc_increment_stationarity(spec, plan=plan, seed=9, n_samples=600)
    three = mc_increment_stationarity(spec, plan=plan, seed=9, n_samples=600,
                                      n_workers=3)
    assert one == three


def test_mc_leaves_corners_with_a_zero_coordinate_out_of_the_draw():
    # anchors on the axes put corners at zero, where the field is 0 a.s.
    spec = MildTheta(0.3, 0.7, 0.8)
    rows = mc_increment_stationarity(spec, plan=_PLAN_ON_AXES, seed=10, n_samples=4000)
    assert len(rows) == 12
    for r in rows:
        assert all(math.isfinite(r[c]) for c in ("estimate", "se",
                                                  "z_analytic"))
        assert abs(r["z_analytic"]) <= 4.0
