"""Exact Gaussian sampling on finite grids and Monte Carlo verification.

Sampling is plain dense linear algebra: assemble the covariance matrix of a
kernel over the grid, factor it (Cholesky, with one diagonal-jitter retry),
and multiply standard normals through the factor.  The matrix is assembled
a block of rows at a time, so the temporaries stay O(block * n) next to
the n x n result.  On a tensor grid, the mesh of per-coordinate axes, the
kernel's separable terms make it a sum of Kronecker products of per-axis
letter matrices: each coordinate's letters are taken once, over its axis
pairs, and each block is summed from these tables by the term loop of
:mod:`rectfield.kernels`; on any other point list each block is one call
of the kernel's array form, which runs the same loop.  Both give the same
bits, and one finish mirrors and checks every block.  Normals come from
counter-based Philox streams keyed by (seed, stream, chunk index) as
numpy's ``SeedSequence(seed, spawn_key=(stream, chunk))`` keys them, so the
same seed reproduces the same bits regardless of how many workers generate
the chunks.  The keys of every chunk of a draw come from one pass
(``_chunk_keys``): numpy builds the entropy pool of (seed, stream) once,
and the chunk words are mixed into it as arrays; each ``Philox`` takes its
key through a seed sequence that holds it, drawing no entropy.

The Monte Carlo side estimates increment covariances from simulated fields
(for comparison with the batched closed-form increment algebra): one draw
per probe pair and shift, from stream p S + k, at the distinct corners of
both boxes.  One corner table serves the whole plan, and the corner
covariance matrices of a block of probes come from one kernel call, with
the finish of ``cov_matrix``'s blocks.  It also runs the
partial-sum demonstration: normalized rectangular sums of an iid lattice
field converge to the Brownian sheet, and the empirical covariance of the
normalized sums is compared against both the pre-limit lattice covariance
and the limiting min-product form.  The demo never builds the lattice: it
draws the exact sum of each cell of the partition that the requested points
induce, so its cost depends on the number of distinct point coordinates,
not on the scaling factors.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .increments import PLAN_BLOCK, ProbePlan, _corners, probe_covariances
from .kernels import (CovKernel, FieldSpec, NonFiniteError, _as_points,
                      _letters_array, _table_hurst, _term_sum, _unique,
                      make_kernel)

__all__ = [
    "PSDError",
    "Grid",
    "grid_from_axes",
    "SampleBatch",
    "cov_matrix",
    "cholesky_sample",
    "sample_field",
    "empirical_cov",
    "mc_increment_stationarity",
    "limit_partial_sums",
    "LimitDemo",
]

CHUNK_SIZE = 256          # replications per RNG stream; fixed for determinism
MAX_WORKERS = 64          # sampler threads a run may ask for
MAX_LIMIT_SCALE = 512     # bound on the scaling factors r1, r2 of the demo
MAX_LIMIT_INDEX = 1 << 31  # bound on floor(t_k r_k) in the partial-sum demo
ROW_BLOCK = 128           # covariance-matrix rows per kernel call
MC_PLAN = {"n_pairs": 4, "n_shifts": 3}   # mc's probe plan size by default


class PSDError(RuntimeError):
    """Covariance matrix is not numerically positive semidefinite."""


@dataclass(frozen=True)
class Grid:
    """Ordered evaluation points in the open positive orthant."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2:
            raise ValueError(f"grid points must form a list of points, got "
                             f"shape {pts.shape}")
        if pts.size == 0:
            raise ValueError("grid needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if np.any(pts <= 0.0):
            raise ValueError("grid points must have strictly positive "
                             "coordinates (the axes are degenerate)")
        if len(_unique(pts)[0]) != len(pts):
            raise ValueError("grid contains duplicate points")
        object.__setattr__(self, "points", pts)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def grid_from_axes(axes) -> Grid:
    """Tensor grid from per-coordinate axis values."""
    mesh = np.meshgrid(*[np.asarray(a, dtype=float) for a in axes],
                       indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    return Grid(pts)


def _tensor_axes(pts: np.ndarray):
    """The axes whose ``grid_from_axes`` mesh is the point list ``pts``
    (n, N), each in its own order, or None when no mesh of axes is: each
    axis has as many values as its coordinate takes, read off the mesh."""
    sizes = [1 + np.count_nonzero(np.diff(np.sort(col))) for col in pts.T]
    if math.prod(sizes) != len(pts):
        return None
    # coordinate d steps once every prod(sizes[d + 1:]) points
    axes = [pts[::math.prod(sizes[d + 1:]), d][:k] for d, k in enumerate(sizes)]
    for d, (col, axis) in enumerate(zip(pts.T, axes)):
        shape = [1] * len(sizes)
        shape[d] = -1
        if not (col.reshape(sizes) == axis.reshape(shape)).all():
            return None
    return axes


def _finish_squares(block: np.ndarray, pts: np.ndarray,
                    live: np.ndarray | None = None) -> np.ndarray:
    """The one finish of a block (..., r, c) of K(p_i, p_j) over stacks of
    points pts (..., c, N), the rows its first r, in place; returns the
    block.  The strictly lower triangle of each leading r x r square is
    mirrored from the upper one: every table that ``_table_hurst`` accepts
    is bitwise symmetric, so the mirror changes no bit of it, and it stays
    so that a value only at (p_j, p_i) is never read.  A non-finite value
    raises ``NonFiniteError``, naming the first pair (in stack order, then
    i <= j in row order) where it occurs; ``live`` (..., c) marks the
    points that count, so padding is never named.
    """
    r = block.shape[-2]
    square = block[..., :r]
    np.copyto(square, np.swapaxes(square, -1, -2),
              where=np.tri(r, k=-1, dtype=bool))
    ok = np.isfinite(block)
    if live is not None:
        ok |= ~(live[..., :r, None] & live[..., None, :])
    if not ok.all():
        *stack, i, j = np.argwhere(~ok)[0]
        raise NonFiniteError(f"kernel returned non-finite value at points "
                             f"{pts[(*stack, i)]}, {pts[(*stack, j)]}")
    return block


def _axis_letters(H, terms, axes) -> list:
    """Each coordinate's letters over its axis pairs, the tables of a
    kernel on the mesh of ``axes``: coordinate j's letter phi, by name, as
    the n_j x n_j matrix phi(t = axis_j[b], s = axis_j[a]) (row a, column
    b), taken once (``_letters_array``); numpy is told not to warn, and
    finiteness is left to the caller."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return [_letters_array(h, x[None, :], x[:, None],
                               {row[j] for _, row in terms})
                for j, (h, x) in enumerate(zip(H, axes))]


def _table_rows(h, table, rows, first, shape, names) -> dict:
    """The letters that ``names`` lists of one coordinate's ``table`` at
    its ``rows``, from column ``first`` on, each row shaped ``shape``."""
    return {name: table[name][rows, first:].reshape(len(rows), *shape)
            for name in names}


def cov_matrix(kernel: CovKernel, grid: Grid) -> np.ndarray:
    """Dense covariance matrix M[i, j] = K(p_i, p_j), exactly symmetric.

    The kernel's term table is checked once (``_table_hurst``), and M is
    written a block of ``ROW_BLOCK`` rows at a time by the one term loop.
    On a grid whose points are the ``grid_from_axes`` mesh of some axes
    (in any order), a block is ``_term_sum`` of the axis letter tables
    (``_axis_letters``) read at its rows, the first axis's from the
    block's first row's index on, each shaped to broadcast along its own
    axis of the mesh; on any other point list, one ``kernel.batch`` call
    over the columns j >= the block's first row.  Both give the same bits.
    ``_finish_squares`` finishes the block's square, and its columns
    j < lo are copied from the rows above.
    """
    pts = grid.points
    n = len(pts)
    H = _table_hurst(kernel.H, kernel.terms)
    axes = _tensor_axes(pts)
    if axes is not None:
        tables = _axis_letters(H, kernel.terms, axes)
        sizes = [len(x) for x in axes]
        stride = n // sizes[0]
        shapes = [[1] * d + [-1] + [1] * (len(axes) - 1 - d)
                  for d in range(len(axes))]
    M = np.empty((n, n))
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        if axes is None:
            M[lo:hi, lo:] = kernel.batch(pts[lo:hi, None], pts[None, lo:])
        else:
            first = [lo // stride] + [0] * (len(axes) - 1)
            rows = np.unravel_index(np.arange(lo, hi), sizes)
            _term_sum(H, kernel.terms, list(zip(tables, rows, first, shapes)),
                      _table_rows, M[lo:hi, first[0] * stride:].reshape(
                          hi - lo, -1, *sizes[1:]))
        _finish_squares(M[lo:hi, lo:], pts[lo:])
        M[lo:hi, :lo] = M[:lo, lo:hi].T
    return M


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): the
# multipliers of its entropy hash (A) and of its output hash (B), and its
# two mixing multipliers
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_multipliers(init: int, mult: int, start: int) -> np.ndarray:
    """init mult^k mod 2^32 for k = start, ..., start + 4, as a column."""
    first = init * pow(mult, start, 1 << 32)
    return np.array([first * pow(mult, k, 1 << 32) % (1 << 32)
                     for k in range(5)], dtype=np.uint32)[:, None]


def _words(n: int) -> int:
    """How many uint32 words SeedSequence splits the int n >= 0 into."""
    return max(1, -(-n.bit_length() // 32))


def _chunk_keys(seed, stream, n_chunks: int) -> np.ndarray:
    """The Philox keys (n_chunks, 2) of the chunks of (seed, stream).

    Chunk c's key is what ``Philox(SeedSequence(seed, spawn_key=(stream,
    c)))`` takes, two uint64 words of ``generate_state``; numpy builds
    the pool of (seed, stream) once, and every chunk word, the last of the
    entropy, is mixed into it here in uint32 arithmetic.  Before that word
    the pool has used 4 L multipliers of the entropy hash, one per pool
    word and entropy word (L words: the seed's, padded to 4, and the
    stream's).  A chunk index fits one word, since a draw of 2^32 chunks
    of ``CHUNK_SIZE`` rows is far past memory.  A seed or stream that is
    not an integer raises TypeError; a float is not truncated.
    """
    seed, stream = operator.index(seed), operator.index(stream)
    pool = np.random.SeedSequence(seed, spawn_key=(stream,)).pool[:, None]
    a = _hash_multipliers(_INIT_A, _MULT_A,
                          4 * (max(4, _words(seed)) + _words(stream)))
    b = _hash_multipliers(_INIT_B, _MULT_B, 0)
    v = (np.arange(n_chunks, dtype=np.uint32) ^ a[:4]) * a[1:]
    v ^= v >> 16
    v = np.uint32(_MIX_MULT_L) * pool - np.uint32(_MIX_MULT_R) * v
    v ^= v >> 16
    v = (v ^ b[:4]) * b[1:]
    v ^= v >> 16
    # words 0, 1 and 2, 3 are the two little-endian uint64 key words
    return np.ascontiguousarray(v.T, dtype="<u4").view("<u8")


class _ChunkKey(ISeedSequence):
    """A seed sequence that hands ``Philox`` a key from ``_chunk_keys``;
    ``Philox(key=...)`` would draw operating-system entropy first."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a chunk key is two uint64 words")
        return self.key


def _chunk_generator(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_ChunkKey(key)))


def _check_finite(M: np.ndarray, context: str):
    bad = np.argwhere(~np.isfinite(M))
    if len(bad):
        i, j = bad[0]
        raise NonFiniteError(f"covariance of {context} has the non-finite "
                             f"entry {M[i, j]} at ({i}, {j})")


def _factor_with_jitter(M: np.ndarray, context: str):
    trace = float(np.trace(M))
    try:
        return np.linalg.cholesky(M), 0.0
    except np.linalg.LinAlgError:
        pass
    min_eig = float(np.linalg.eigvalsh(M)[0])
    if min_eig < -1e-8 * max(trace, 1e-300):
        raise PSDError(
            f"covariance of {context} has min eigenvalue {min_eig:.3e} "
            f"below -1e-8 * trace ({trace:.3e})")
    jitter = 1e-10 * trace / M.shape[0]
    try:
        return np.linalg.cholesky(M + jitter * np.eye(M.shape[0])), jitter
    except np.linalg.LinAlgError:
        raise PSDError(
            f"covariance of {context} failed Cholesky even with jitter "
            f"{jitter:.3e}") from None


@dataclass
class SampleBatch:
    seed: int
    grid: Grid
    values: np.ndarray      # (n_samples, n_points)
    spec: FieldSpec | None
    jitter: float = 0.0
    cov: np.ndarray | None = None   # the covariance matrix the draws follow

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]


def cholesky_sample(M: np.ndarray, seed: int, n_samples: int,
                    n_workers: int = 1, stream: int = 0,
                    context: str = "matrix"):
    """Draw n_samples rows of N(0, M) deterministically.

    Chunk c of ``CHUNK_SIZE`` rows draws from the Philox stream keyed by
    (seed, stream, c) as ``SeedSequence(seed, spawn_key=(stream, c))``
    keys it; all keys of a call come from one pass (``_chunk_keys``).  Each
    chunk's normals are multiplied through the factor by one matmul that
    writes the chunk's rows of the result in place, and with
    ``n_workers`` > 1 a thread pool runs the chunks, each on its own rows.
    So the output is bitwise independent of ``n_workers``.  An
    ``n_workers`` outside [1, ``MAX_WORKERS``] raises ValueError, and one
    that is not an integer TypeError, before anything is factored or a
    thread started.  A non-finite entry of M raises ``NonFiniteError``
    before anything is factored, and a seed or stream that is not an
    integer raises TypeError.  Returns (values, jitter_used).
    """
    if not 1 <= operator.index(n_workers) <= MAX_WORKERS:
        raise ValueError(f"n_workers must lie in [1, {MAX_WORKERS}], got "
                         f"{n_workers}")
    M = np.asarray(M, dtype=float)
    _check_finite(M, context)
    keys = _chunk_keys(seed, stream, -(-n_samples // CHUNK_SIZE))
    dim = M.shape[0]
    values = np.empty((n_samples, dim))
    if n_samples == 0:
        return values, 0.0
    L, jitter = _factor_with_jitter(M, context)
    Lt = L.T.copy()

    def draw(task):
        key, lo = task
        z = _chunk_generator(key).standard_normal(
            (min(CHUNK_SIZE, n_samples - lo), dim))
        np.matmul(z, Lt, out=values[lo:lo + len(z)])

    tasks = list(zip(keys, range(0, n_samples, CHUNK_SIZE)))
    if n_workers > 1:   # no more threads than chunks
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(min(n_workers, len(tasks))) as pool:
            list(pool.map(draw, tasks))
    else:
        for task in tasks:
            draw(task)
    return values, jitter


def sample_field(spec: FieldSpec, grid: Grid, seed: int, n_samples: int,
                 n_workers: int = 1) -> SampleBatch:
    """Exact draws of the field described by ``spec`` on a grid."""
    kernel = make_kernel(spec)
    M = cov_matrix(kernel, grid)
    values, jitter = cholesky_sample(M, seed, n_samples, n_workers=n_workers,
                                     context=spec.family)
    return SampleBatch(seed=seed, grid=grid, values=values, spec=spec,
                       jitter=jitter, cov=M)


def _wick_se(var_x, var_y, cov_xy, n):
    """Standard error of the mean of n products x y of centred Gaussians,
    sqrt((var_x var_y + cov_xy^2) / n), with no product that can overflow;
    a variance rounded below zero counts as zero."""
    sd_xy = np.sqrt(np.maximum(var_x, 0.0)) * np.sqrt(np.maximum(var_y, 0.0))
    return np.hypot(sd_xy, cov_xy) / math.sqrt(n)


def empirical_cov(batch: SampleBatch, analytic: np.ndarray | None = None):
    """Raw-second-moment covariance estimate and per-entry standard errors.

    The fields are centered, so no mean is subtracted.  Standard errors use
    the Gaussian fourth-moment identity var(x y) = K_xx K_yy + K_xy^2 with
    the analytic kernel matrix when supplied, empirical moments otherwise.
    """
    n = batch.n_samples
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    emp = batch.values.T @ batch.values / n
    K = emp if analytic is None else np.asarray(analytic, dtype=float)
    var = np.diag(K)
    return emp, _wick_se(var[:, None], var[None, :], K, n)


# --------------------------------------------------------------------------
# Monte Carlo increment probes
# --------------------------------------------------------------------------

def _probe_corners(plan: ProbePlan):
    """One corner table for every probe of a plan.

    Probe q = p S + k has the boxes [h_k, u1 + h_k] and [h_k, u2 + h_k] of
    pair p = (u1, u2) and shift h_k.  Returns (pts, count, index, signs):
    pts[q, :count[q]] are the probe's distinct corners with no zero
    coordinate, in lexicographic order (first coordinate first), and the rest
    of pts (Q, m >= 1, N) is padding, all ones; index (Q, 2, 2^N)
    is the column of each box corner in pts[q], and -1 for a corner with a
    zero coordinate; signs (2^N,) are the corner signs.
    """
    u = np.asarray(plan.u_pairs, dtype=float)                     # (P, 2, N)
    h = np.asarray(plan.shifts, dtype=float)[:, None, :]          # (S, 1, N)
    hi = h + u[:, None]                                        # (P, S, 2, N)
    corners, signs = _corners(h, hi)                  # (P, S, 2, 2^N, N)
    n_probes = hi.shape[0] * hi.shape[1]
    flat = corners.reshape(-1, hi.shape[-1])
    # the probe number leads each row, so no two probes share a point and
    # each probe's points keep the lexicographic order they have alone
    probe = np.arange(len(flat)) // (len(flat) // n_probes)
    uniq, inverse = _unique(np.column_stack([probe, flat]))
    owner, uniq = uniq[:, 0].astype(int), uniq[:, 1:]
    live = np.all(uniq > 0.0, axis=1)
    count = np.bincount(owner[live], minlength=n_probes)
    col = np.cumsum(live) - 1 - (np.cumsum(count) - count)[owner]
    pts = np.ones((n_probes, max(int(count.max()), 1), uniq.shape[1]))
    pts[owner[live], col[live]] = uniq[live]
    index = np.where(live, col, -1)[inverse]
    return pts, count, index.reshape(n_probes, 2, -1), signs


def mc_increment_stationarity(spec: FieldSpec, plan: ProbePlan | None = None,
                              seed: int = 0, n_samples: int = 20000,
                              n_workers: int = 1) -> list:
    """Monte Carlo probe of increment-covariance shift invariance.

    For probe pair p and shift k (of S), one draw of the field at the
    distinct corners of both boxes [h_k, u1 + h_k] and [h_k, u2 + h_k],
    from stream p S + k, gives both increments; the var row estimates
    E[inc1^2] and the cross row E[inc1 inc2] from it.  Corners with a zero
    coordinate are left out of the draw: the field is 0 there almost
    surely.  The corners of every probe come from one table
    (``_probe_corners``), and their covariance matrices from one kernel
    call per block of probes (at most ``PLAN_BLOCK`` corner pairs).  Each
    estimate is reported with its standard error against the h = 0
    reference and the analytic value at h.  Rows feed the CSV report; the
    ``z_reference`` column is the detector for stationarity violations.
    """
    if n_samples < 1:   # no draws would give 0/0 estimates
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    kernel = make_kernel(spec)
    if plan is None:
        plan = ProbePlan.default(len(spec.hurst), **MC_PLAN)
    C = probe_covariances(kernel, plan).tolist()
    pts, count, index, signs = _probe_corners(plan)
    live = np.arange(pts.shape[1]) < count[:, None]
    step = max(1, PLAN_BLOCK // pts.shape[1] ** 2)
    M = np.concatenate([_finish_squares(
        kernel.batch(pts[b, :, None], pts[b, None]), pts[b], live[b])
        for b in (slice(i, i + step) for i in range(0, len(pts), step))])
    signs = signs.tolist()
    est = []
    for q, m in enumerate(count.tolist()):
        inc = np.zeros((n_samples, 2))
        if m:
            values, _ = cholesky_sample(
                M[q, :m, :m], seed, n_samples, n_workers=n_workers,
                stream=q, context=spec.family)
            for box, cols in zip(inc.T, index[q].tolist()):
                for col, sign in zip(cols, signs):   # in corner order
                    if col >= 0:     # a corner with a zero coordinate is 0
                        box += values[:, col] * sign
        est.append((inc[:, 0] @ inc / n_samples).tolist())      # var, cross
    S = len(plan.shifts)
    rows = []
    for p in range(len(plan.u_pairs)):
        for v, kind in enumerate(("var", "cross")):
            ref = C[p][v][0]
            for k, shift in enumerate(plan.shifts, start=1):
                e, c = est[p * S + k - 1][v], C[p][v][k]
                se = float(_wick_se(C[p][0][k], C[p][2 * v][k], c, n_samples))
                rows.append({
                    "probe": p, "kind": kind, "h": shift,
                    "estimate": e, "se": se, "reference": ref,
                    "analytic": c,
                    "z_reference": (e - ref) / se if se > 0 else 0.0,
                    "z_analytic": (e - c) / se if se > 0 else 0.0,
                })
    return rows


# --------------------------------------------------------------------------
# Partial-sum limit demonstration
# --------------------------------------------------------------------------

@dataclass
class LimitDemo:
    t_points: np.ndarray
    emp_cov: np.ndarray
    se: np.ndarray
    exact_cov: np.ndarray   # pre-limit lattice covariance
    limit_cov: np.ndarray   # Brownian-sheet min products
    n_reps: int


def _blocks(k: np.ndarray):
    """Block sizes and block index of each lattice index in ``k``.

    The sorted distinct values e of ``k`` cut the lattice indices 0..max(k)
    into consecutive blocks (e[j-1], e[j]] with sizes diff([-1, e]); each
    entry of ``k`` is the right end of its block.
    """
    edges, block = _unique(k)
    return np.diff(edges, prepend=-1), block


def _rect_sums(cells: np.ndarray, b1: np.ndarray, b2: np.ndarray):
    """Rectangular sums from the origin, read from cell sums.

    ``cells[..., i, j]`` is the sum over block i of the first coordinate and
    block j of the second; the sum up to the point with block indices
    (b1[p], b2[p]) is the double cumulative sum there.  Returns (..., p).
    """
    return cells.cumsum(axis=-2).cumsum(axis=-1)[..., b1, b2]


def _limit_scale(name: str, r):   # the one check of r1 or r2
    if not 1 <= r <= MAX_LIMIT_SCALE:
        raise ValueError(f"{name}: must lie in [1, {MAX_LIMIT_SCALE}], got {r}")
    return r


def _limit_indices(r1, r2, t_points) -> np.ndarray:
    """floor(t_k r_k) as int64 (m, 2), after the one check of the demo's
    arguments; each index stays below ``MAX_LIMIT_INDEX`` so that products
    of block sizes fit in int64."""
    r = _limit_scale("r1", r1), _limit_scale("r2", r2)
    k = np.atleast_2d(np.floor(_as_points(t_points, 2) * r))
    if k.ndim != 2 or not len(k):
        raise ValueError(f"expected one point or a list of points, got shape "
                         f"{k.shape}")
    if not np.all(k < MAX_LIMIT_INDEX):
        raise ValueError(f"floor(t_k r_k) must stay below {MAX_LIMIT_INDEX}, "
                         f"got {k.max():.6g}")
    return k.astype(np.int64)


def limit_partial_sums(r1: int, r2: int, t_points, seed: int = 0,
                       n_reps: int = 2000) -> LimitDemo:
    """Empirical covariance of normalized rectangular sums of an iid lattice.

    V(t) = (r1 r2)^{-1/2} sum_{k1 <= t1 r1, k2 <= t2 r2} Y(k1, k2) with
    iid standard normal Y (lattice indices from 0).  The empirical
    covariance over ``n_reps`` replications is returned together with the
    exact pre-limit covariance (floor(u1 r1)+1)(floor(u2 r2)+1)/(r1 r2),
    u = min(t, s), and the limiting min-product covariance.

    The lattice is never built.  The distinct floor indices cut it into
    m1 x m2 cells, and V at every point is a double cumulative sum of cell
    sums.  A cell of n iid N(0, 1) sites sums to sqrt(n) N(0, 1) exactly,
    so each replication draws m1 m2 normals, whatever r1 and r2 are, and
    the sums have the same joint law as the lattice sums.  Replication
    chunks of ``CHUNK_SIZE`` use Philox streams keyed (seed, 0, chunk).
    Arguments that ``_limit_indices`` rejects raise ValueError; each
    floor(t_k r_k) must lie below ``MAX_LIMIT_INDEX`` (2^31), and
    ``n_reps`` must be at least 1.
    """
    if n_reps < 1:   # no replications would give 0/0 estimates
        raise ValueError(f"n_reps must be at least 1, got {n_reps}")
    k1, k2 = _limit_indices(r1, r2, t_points).T
    t_points = np.atleast_2d(np.asarray(t_points, dtype=float))

    (n1, b1), (n2, b2) = _blocks(k1), _blocks(k2)
    scale = np.sqrt(np.outer(n1, n2) / (r1 * r2))
    # replications per draw: bounds memory for many cells, not the bits
    step = max(1, (1 << 20) // scale.size)
    m = len(t_points)
    acc = np.zeros((m, m))
    keys = _chunk_keys(seed, 0, -(-n_reps // CHUNK_SIZE))
    for key, lo in zip(keys, range(0, n_reps, CHUNK_SIZE)):
        rng = _chunk_generator(key)
        take = min(CHUNK_SIZE, n_reps - lo)
        for sub in range(0, take, step):
            z = rng.standard_normal((min(step, take - sub),) + scale.shape)
            v = _rect_sums(z * scale, b1, b2)
            acc += v.T @ v

    emp = acc / n_reps
    exact = ((np.minimum.outer(k1, k1) + 1.0)
             * (np.minimum.outer(k2, k2) + 1.0) / (r1 * r2))
    limit = (np.minimum.outer(t_points[:, 0], t_points[:, 0])
             * np.minimum.outer(t_points[:, 1], t_points[:, 1]))
    var = np.diag(exact)
    se = _wick_se(var[:, None], var[None, :], exact, n_reps)
    return LimitDemo(t_points=t_points, emp_cov=emp, se=se, exact_cov=exact,
                     limit_cov=limit, n_reps=n_reps)
