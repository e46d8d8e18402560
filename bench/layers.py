"""Reference timings of single layers, one call at a time.

    PYTHONPATH=src python3 bench/layers.py

Each layer is called once to warm up and then timed over a few repeats;
the median is printed.  These are the reference figures quoted in
``bench/README.md``; the end-to-end benchmark is ``bench/run.py``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, as in the benchmark rounds

import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import rectfield as rf  # noqa: E402
from rectfield import movingavg  # noqa: E402


def timed(fn, repeats, setup=None):
    """Median seconds of ``repeats`` calls of fn after one warm-up call."""
    if setup:
        setup()
    fn()
    times = []
    for _ in range(repeats):
        if setup:
            setup()
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def per_call(fn, calls):
    def batch():
        for _ in range(calls):
            fn()
    return timed(batch, 5) / calls


def _clear_ma_caches():
    for f in (movingavg._power_inner, movingavg._log_inner_il,
              movingavg._log_inner_ll):
        f.cache_clear()


def main():
    H = (0.3, 0.7)
    fbs = rf.make_kernel(rf.FBS(H))
    weights = rf.strict2d_weights(0.5)
    s, t = (0.6, 1.1), (1.3, 0.8)
    grids = {n: rf.grid_from_axes([np.linspace(0.1, 2.5, n)] * 2)
             for n in (5, 20, 40)}
    M400 = rf.cov_matrix(fbs, grids[20])
    pair = rf.MovingPair(0.3, 0.7, 1.0, 0.0)
    t_axes = [0.5, 1.0, 1.5, 2.0]
    t_points = [(a, b) for a in t_axes for b in t_axes]
    rows = [
        ("cov_fbs scalar call", per_call(lambda: rf.cov_fbs(H, s, t), 2000)),
        ("cov_strict_general scalar call",
         per_call(lambda: rf.cov_strict_general(H, weights, s, t), 2000)),
        ("cov_matrix FBS, 25 points",
         timed(lambda: rf.cov_matrix(fbs, grids[5]), 5)),
        ("cov_matrix FBS, 400 points",
         timed(lambda: rf.cov_matrix(fbs, grids[20]), 3)),
        ("cov_matrix FBS, 1600 points",
         timed(lambda: rf.cov_matrix(fbs, grids[40]), 1)),
        ("Cholesky of the 400-point matrix",
         timed(lambda: np.linalg.cholesky(M400), 20)),
        ("classify_stationarity FBS, default plan",
         timed(lambda: rf.classify_stationarity(fbs), 5)),
        ("cold cov_moving_pair evaluation",
         timed(lambda: movingavg.cov_moving_pair(pair, s, t), 5,
               setup=_clear_ma_caches)),
        ("identity_sweep", timed(rf.identity_sweep, 5)),
        ("cov_from_density 1-D",
         timed(lambda: rf.cov_from_density(rf.fbm_density(0.3), (0.7,)), 10)),
        ("limit_partial_sums 256x256x2000",
         timed(lambda: rf.limit_partial_sums(256, 256, t_points, seed=1,
                                             n_reps=2000), 1)),
    ]
    print(f"{'layer':42s} {'median':>12s}")
    for name, sec in rows:
        text = f"{sec * 1e6:.1f} us" if sec < 1e-3 else (
            f"{sec * 1e3:.1f} ms" if sec < 1.0 else f"{sec:.2f} s")
        print(f"{name:42s} {text:>12s}")


if __name__ == "__main__":
    main()
