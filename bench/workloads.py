"""The benchmark's workloads: CLI configs generated from a workload seed.

Each workload is a fixed list of ``rectfield`` CLI invocations.  The seed
draws every value the program sees (Hurst indices, couplings, grid
coordinates, probe-plan and sampler seeds) but never a size, so every seed
costs the same work.  Hurst indices stay away from 1/2, where the closed
forms switch branch, and mild couplings stay away from 0, where the
classifier's cross residual would approach its inconclusive band.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

WORKLOADS = ("simulate-grid", "classify-closed", "movingpair-quad",
             "limit-demo")
SIZES = ("full", "smoke")

# Work per round; "smoke" finishes in about a second for the self-tests.
_SIZE = {
    "full": {"grid": 12, "sim_n": 800, "mc_n": 4000,
             "classify": {"n_pairs": 12, "n_shifts": 6},
             "mc_plan": {"n_pairs": 4, "n_shifts": 3},
             "ma_classify": {"n_pairs": 6, "n_shifts": 4},
             "ma_mc": {"n_pairs": 2, "n_shifts": 3},
             "r": 128, "n_reps": 1000},
    "smoke": {"grid": 4, "sim_n": 200, "mc_n": 1000,
              "classify": {"n_pairs": 3, "n_shifts": 2},
              "mc_plan": {"n_pairs": 2, "n_shifts": 2},
              "ma_classify": {"n_pairs": 1, "n_shifts": 2},
              "ma_mc": {"n_pairs": 1, "n_shifts": 2},
              "r": 128, "n_reps": 40},
}


# The round.calibrate() parts whose time tracks each workload's run phase
# when the host changes speed.  limit-demo is vectorised numpy (Philox
# normals, cumulative sums) with no interpreted loop, and slows as the
# numpy part does; the others are dominated by interpreted Python.
RUN_CALIBRATION = {"simulate-grid": ("python", "numpy"),
                   "classify-closed": ("python", "numpy"),
                   "movingpair-quad": ("python", "numpy"),
                   "limit-demo": ("numpy",)}


def _hurst(rng):
    h = float(rng.uniform(0.2, 0.4))
    return h if rng.random() < 0.5 else 1.0 - h


def _seed(rng):
    return int(rng.integers(2**32))


def _signed(rng, lo, hi):
    return float(rng.uniform(lo, hi)) * (1.0 if rng.random() < 0.5 else -1.0)


def _strict_weights(rng, n):
    """Positive weights, equal on e and -e, summing to one."""
    keys = ["".join(e) for e in itertools.product("+-", repeat=n)]
    w = rng.dirichlet(np.ones(len(keys) // 2)) / 2.0
    flip = str.maketrans("+-", "-+")
    out = {}
    for k, v in zip(keys[:len(keys) // 2], w):
        out[k] = out[k.translate(flip)] = float(v)
    return out


def _stratified_axis(rng, lo, hi, n):
    """n increasing points, one per equal cell of [lo, hi]."""
    w = (hi - lo) / n
    return [lo + w * (k + float(rng.uniform(0.1, 0.9))) for k in range(n)]


def simulate_grid(rng, z):
    spec = {"family": "strict2d",
            "H": [float(rng.uniform(0.25, 0.4)), float(rng.uniform(0.6, 0.75))],
            "gamma": float(rng.uniform(0.3, 0.7))}
    axes = [_stratified_axis(rng, 0.2, 2.6, z["grid"]) for _ in range(2)]
    return [("simulate", {"command": "simulate", "spec": spec,
                          "grid": {"axes": axes}, "n_samples": z["sim_n"],
                          "n_workers": 1, "seed": _seed(rng)})]


def classify_closed(rng, z):
    specs = [
        {"family": "fbs", "H": [_hurst(rng) for _ in range(3)]},
        {"family": "strict", "H": [_hurst(rng) for _ in range(3)],
         "weights": _strict_weights(rng, 3)},
        {"family": "strict2d", "H": [_hurst(rng), _hurst(rng)],
         "gamma": _signed(rng, 0.2, 0.9)},
        {"family": "mildtheta", "H": [_hurst(rng), _hurst(rng)],
         "theta": _signed(rng, 0.5, 1.0)},
        {"family": "yhalf", "theta": _signed(rng, 0.5, 1.0)},
        {"family": "zhalf", "gamma": float(rng.uniform(0.2, 0.9))},
    ]
    out = [(f"classify-{s['family']}",
            {"command": "classify", "spec": s,
             "probes": dict(z["classify"], seed=_seed(rng))}) for s in specs]
    for s in (specs[2], specs[4]):
        out.append((f"mc-{s['family']}",
                    {"command": "mc", "spec": s, "n_samples": z["mc_n"],
                     "n_workers": 1, "seed": _seed(rng),
                     "probes": dict(z["mc_plan"], seed=_seed(rng))}))
    return out


def movingpair_quad(rng, z):
    sin2 = math.sin(math.pi * 0.3) * math.sin(math.pi * 0.7)
    d0 = float(rng.uniform(-0.6, 1.0))
    d1 = -d0 * sin2 + math.sqrt(d0 * d0 * (sin2 * sin2 - 1.0) + 1.0)
    phi = float(rng.uniform(0.1, math.pi - 0.1))
    pairs = [{"family": "movingpair", "H": [0.3, 0.7], "d0": d0, "d1": d1},
             {"family": "movingpair", "H": [0.5, 0.5],
              "d0": math.cos(phi), "d1": math.sin(phi)}]
    out = []
    for s in pairs:
        tag = "half" if s["H"][0] == 0.5 else "power"
        out.append((f"classify-{tag}",
                    {"command": "classify", "spec": s,
                     "probes": dict(z["ma_classify"], seed=_seed(rng))}))
        out.append((f"mc-{tag}",
                    {"command": "mc", "spec": s, "n_samples": z["mc_n"],
                     "n_workers": 1, "seed": _seed(rng),
                     "probes": dict(z["ma_mc"], seed=_seed(rng))}))
    for suite in ("lemmas", "densities", "criteria", "ma"):
        out.append((f"check-{suite}", {"command": "check", "suite": suite}))
    xs = np.linspace(-5.0, 5.0, 21).tolist()
    out.append(("density", {"command": "density",
                            "spec": {"family": "fbs",
                                     "H": [_hurst(rng), _hurst(rng)]},
                            "x": [[a, b] for a in xs for b in xs]}))
    return out


def limit_demo(rng, z):
    # t >= 1 keeps the pre-limit bias (floor(u r)+1)/(u r) - 1 well inside
    # the CLI's 5% margin; the largest axis value, which sets the lattice
    # size and so the cost, is fixed at 2.
    axes = _stratified_axis(rng, 1.0, 1.9, 3) + [2.0]
    return [("limit-demo", {"command": "limit-demo", "r1": z["r"],
                            "r2": z["r"], "t_axes": axes,
                            "n_reps": z["n_reps"], "seed": _seed(rng)})]


_BUILDERS = {"simulate-grid": simulate_grid, "classify-closed": classify_closed,
             "movingpair-quad": movingpair_quad, "limit-demo": limit_demo}


def build(workload: str, seed: int, size: str = "full") -> list:
    """[(label, config)] for one workload; the config lacks only ``out``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, _SIZE[size])
