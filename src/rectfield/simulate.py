"""Exact Gaussian sampling on finite grids and Monte Carlo verification.

Sampling is plain dense linear algebra: assemble the covariance matrix of a
kernel over the grid, factor it (Cholesky, with one diagonal-jitter retry),
and multiply standard normals through the factor.  The matrix is assembled
by the kernel's array form, one call per block of rows, so the temporaries
stay O(block * n) next to the n x n result.  Normals come from
counter-based Philox streams keyed by (seed, stream, chunk index), so the
same seed reproduces the same bits regardless of how many workers generate
the chunks.

The Monte Carlo side estimates increment covariances from simulated fields
(for comparison with the batched closed-form increment algebra): one draw
per probe pair and shift, from stream p S + k, at the corners of both boxes
as the batched corner expansion lays them out.  It also runs the
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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .increments import ProbePlan, _corners, probe_covariances
from .kernels import CovKernel, FieldSpec, _as_points, make_kernel

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
        if pts.size == 0:
            raise ValueError("grid needs at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if np.any(pts <= 0.0):
            raise ValueError("grid points must have strictly positive "
                             "coordinates (the axes are degenerate)")
        if len(np.unique(pts, axis=0)) != len(pts):
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


def cov_matrix(kernel: CovKernel, grid: Grid) -> np.ndarray:
    """Dense covariance matrix M[i, j] = K(p_i, p_j), exactly symmetric.

    Each block of ``ROW_BLOCK`` rows is one call of ``kernel.batch`` over
    the columns j >= the block's first row; the entries with i <= j are
    kept and mirrored.  A non-finite value raises, naming the first pair
    (i <= j, in row order) where it occurs.
    """
    pts = grid.points
    n = grid.n_points
    M = np.empty((n, n))
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        block = kernel.batch(pts[lo:hi, None, :], pts[None, lo:, :])
        square = block[:, :hi - lo]
        below = np.tril_indices(hi - lo, -1)
        square[below] = square.T[below]
        bad = np.argwhere(~np.isfinite(block))
        if len(bad):
            i, j = lo + bad[0]
            raise ValueError(f"kernel returned non-finite value at points "
                             f"{pts[i]}, {pts[j]}")
        M[lo:hi, lo:] = block
        M[lo:, lo:hi] = block.T
    return M


def _stream(seed: int, stream: int, chunk: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(stream, chunk))
    return np.random.Generator(np.random.Philox(seed=ss))


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

    Chunked Philox streams keyed by (seed, stream, chunk) make the output
    bitwise independent of ``n_workers``.  Returns (values, jitter_used).
    """
    M = np.asarray(M, dtype=float)
    dim = M.shape[0]
    if n_samples == 0:
        return np.empty((0, dim)), 0.0
    L, jitter = _factor_with_jitter(M, context)
    Lt = L.T.copy()
    bounds = [(i, min(i + CHUNK_SIZE, n_samples))
              for i in range(0, n_samples, CHUNK_SIZE)]

    def draw(chunk_idx_and_span):
        idx, (lo, hi) = chunk_idx_and_span
        z = _stream(seed, stream, idx).standard_normal((hi - lo, dim))
        return lo, z @ Lt

    values = np.empty((n_samples, dim))
    tasks = list(enumerate(bounds))
    if n_workers > 1:   # no more threads than chunks
        with ThreadPoolExecutor(min(n_workers, len(tasks))) as pool:
            for lo, block in pool.map(draw, tasks):
                values[lo:lo + block.shape[0]] = block
    else:
        for lo, block in map(draw, tasks):
            values[lo:lo + block.shape[0]] = block
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
    se = np.sqrt((np.outer(np.diag(K), np.diag(K)) + K**2) / n)
    return emp, se


# --------------------------------------------------------------------------
# Monte Carlo increment probes
# --------------------------------------------------------------------------

def mc_increment_stationarity(spec: FieldSpec, plan: ProbePlan | None = None,
                              seed: int = 0, n_samples: int = 20000,
                              n_workers: int = 1) -> list:
    """Monte Carlo probe of increment-covariance shift invariance.

    For probe pair p and shift k (of S), one draw of the field at the
    distinct corners of both boxes [h_k, u1 + h_k] and [h_k, u2 + h_k],
    from stream p S + k, gives both increments; the var row estimates
    E[inc1^2] and the cross row E[inc1 inc2] from it.  Corners with a zero
    coordinate are left out of the draw: the field is 0 there almost
    surely.  Each estimate is reported with its standard error against the
    h = 0 reference and the analytic value at h.  Rows feed the CSV
    report; the ``z_reference`` column is the detector for stationarity
    violations.
    """
    kernel = make_kernel(spec)
    if plan is None:
        plan = ProbePlan.default(len(spec.hurst), **MC_PLAN)
    C = probe_covariances(kernel, plan).tolist()
    u = np.asarray(plan.u_pairs, dtype=float)                     # (P, 2, N)
    shifts = np.asarray(plan.shifts, dtype=float)                 # (S, N)
    rows = []
    for p, pair in enumerate(u):
        est = []
        for k, h in enumerate(shifts):
            corners, signs = _corners(h, h + pair)              # (2, 2^N, N)
            pts, inverse = np.unique(corners.reshape(-1, len(h)), axis=0,
                                     return_inverse=True)
            live = np.all(pts > 0.0, axis=1)
            values = np.zeros((n_samples, len(pts)))
            if live.any():
                M = cov_matrix(kernel, Grid(pts[live]))
                values[:, live], _ = cholesky_sample(
                    M, seed, n_samples, n_workers=n_workers,
                    stream=p * len(shifts) + k, context=spec.family)
            inc = values[:, inverse.reshape(2, -1)] @ signs          # (n, 2)
            est.append((inc[:, 0] @ inc / n_samples).tolist())   # var, cross
        for v, kind in enumerate(("var", "cross")):
            ref = C[p][v][0]
            for k, shift in enumerate(plan.shifts, start=1):
                e, c = est[k - 1][v], C[p][v][k]
                v1, v2 = C[p][0][k], C[p][2 * v][k]
                se = math.sqrt(max(v1 * v2 + c * c, 0.0) / n_samples)
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
    edges = np.unique(k)
    return np.diff(edges, prepend=-1), np.searchsorted(edges, k)


def _rect_sums(cells: np.ndarray, b1: np.ndarray, b2: np.ndarray):
    """Rectangular sums from the origin, read from cell sums.

    ``cells[..., i, j]`` is the sum over block i of the first coordinate and
    block j of the second; the sum up to the point with block indices
    (b1[p], b2[p]) is the double cumulative sum there.  Returns (..., p).
    """
    return cells.cumsum(axis=-2).cumsum(axis=-1)[..., b1, b2]


def _limit_indices(r1, r2, t_points) -> np.ndarray:
    """floor(t_k r_k) as int64 (m, 2), after the one check of the demo's
    arguments; each index stays below ``MAX_LIMIT_INDEX`` so that products
    of block sizes fit in int64."""
    if not (1 <= r1 <= MAX_LIMIT_SCALE and 1 <= r2 <= MAX_LIMIT_SCALE):
        raise ValueError(f"scaling factors must lie in [1, {MAX_LIMIT_SCALE}],"
                         f" got r1={r1}, r2={r2}")
    k = np.floor(_as_points(t_points, 2) * (r1, r2))
    if not np.all(k < MAX_LIMIT_INDEX):
        raise ValueError(f"floor(t_k r_k) must stay below {MAX_LIMIT_INDEX}, "
                         f"got {k.max():.6g}")
    return np.atleast_2d(k.astype(np.int64))


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
    floor(t_k r_k) must lie below ``MAX_LIMIT_INDEX`` (2^31).
    """
    k1, k2 = _limit_indices(r1, r2, t_points).T
    t_points = np.atleast_2d(np.asarray(t_points, dtype=float))

    (n1, b1), (n2, b2) = _blocks(k1), _blocks(k2)
    scale = np.sqrt(np.outer(n1, n2) / (r1 * r2))
    # replications per draw: bounds memory for many cells, not the bits
    step = max(1, (1 << 20) // scale.size)
    m = len(t_points)
    acc = np.zeros((m, m))
    for chunk, lo in enumerate(range(0, n_reps, CHUNK_SIZE)):
        rng = _stream(seed, 0, chunk)
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
    se = np.sqrt((np.outer(np.diag(exact), np.diag(exact)) + exact**2)
                 / n_reps)
    return LimitDemo(t_points=t_points, emp_cov=emp, se=se, exact_cov=exact,
                     limit_cov=limit, n_reps=n_reps)
