"""Per-layer tracing by wrapping module attributes of ``rectfield``.

Only the traced round installs the wrappers; ``src/`` is never modified.
Each wrapped function aggregates (calls, inclusive time, self time), where
self time is the inclusive time minus the time of wrapped callees, kept on
an explicit stack.  A wrapper replaces every reference to the function in
the package's module namespaces, so calls through ``from .x import f``
names are traced too.  The layers are the package's modules; CSV writing
in the CLI is its own layer, ``cli.csv``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

_PRIVATE = {  # layer boundaries that are not in a module's __all__
    "simulate": ("_factor_with_jitter",),
    "quadrature": ("_quad_panel",),
    "cli": ("validate_config", "spec_from_dict", "spec_to_dict"),
}
KERNEL_EVALS = ("cov_fbs", "cov_strict_general", "cov_strict_2d",
                "cov_mild_theta", "cov_y_half", "cov_z_half")
LAYERS = ("kernels", "increments", "simulate", "movingavg", "quadrature",
          "spectral", "lamperti", "cli", "cli.csv")


class Tracer:
    def __init__(self):
        self.stats = {}      # "layer:function" -> [calls, inclusive s, self s]
        self.counts = {"normals_drawn": 0, "limit_normals_drawn": 0,
                       "jitter_retries": 0, "neval": 0, "csv_rows": 0,
                       "csv_bytes": 0}
        self._stack = []
        self._lru = []
        self._cache_base = (0, 0)

    def wrap(self, key, fn, after=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def reset(self):
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        for k in self.counts:
            self.counts[k] = 0
        self._cache_base = self._cache_totals()

    # -- hooks that count work from call arguments and results ------------

    def _cholesky(self, args, kwargs, result):
        M, n_samples = args[0], args[2] if len(args) > 2 else kwargs["n_samples"]
        self.counts["normals_drawn"] += int(n_samples) * len(M)

    def _limit(self, args, kwargs, result):
        r1, r2 = int(args[0]), int(args[1])
        t = result.t_points
        cells = (math.floor(t[:, 0].max() * r1) + 1) * \
            (math.floor(t[:, 1].max() * r2) + 1)
        self.counts["limit_normals_drawn"] += result.n_reps * cells

    def _factor(self, args, kwargs, result):
        self.counts["jitter_retries"] += result[1] > 0.0

    def _quad(self, args, kwargs, result):
        self.counts["neval"] += int(result[2].get("neval", 0))

    def _csv(self, args, kwargs, result):
        self.counts["csv_rows"] += len(args[1])
        self.counts["csv_bytes"] += args[0].stat().st_size

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer in the loaded package."""
        mods = {n.split(".", 1)[1]: m for n, m in sys.modules.items()
                if n.startswith("rectfield.")}
        after = {"simulate:cholesky_sample": self._cholesky,
                 "simulate:limit_partial_sums": self._limit,
                 "simulate:_factor_with_jitter": self._factor,
                 "quadrature:quad": self._quad,
                 "cli.csv:_write_csv": self._csv}
        plan = [("cli.csv", mods["cli"], "_write_csv"),
                ("quadrature", mods["quadrature"], "quad")]
        for layer in LAYERS[:-1]:
            mod = mods[layer]
            names = [n for n in getattr(mod, "__all__", ())
                     if inspect.isfunction(getattr(mod, n, None))]
            plan += [(layer, mod, n) for n in names + list(_PRIVATE.get(layer, ()))]
        self._lru = [v for v in vars(mods["movingavg"]).values()
                     if hasattr(v, "cache_info")]
        namespaces = list(mods.values()) + [sys.modules["rectfield"]]
        for layer, mod, name in plan:
            orig = getattr(mod, name)
            key = f"{layer}:{name}"
            wrapped = self.wrap(key, orig, after.get(key))
            for ns in namespaces:
                for attr, val in list(vars(ns).items()):
                    if val is orig:
                        setattr(ns, attr, wrapped)

    def _cache_totals(self):
        return (sum(f.cache_info().hits for f in self._lru),
                sum(f.cache_info().misses for f in self._lru))

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of the phase since the last reset."""
        def fn(key, i):
            return self.stats.get(key, [0, 0.0, 0.0])[i]

        def layer_self(layer):
            return sum(v[2] for k, v in self.stats.items()
                       if k.split(":")[0] == layer)

        def layer_calls(layer):
            return sum(v[0] for k, v in self.stats.items()
                       if k.split(":")[0] == layer)

        hits, misses = (a - b for a, b in zip(self._cache_totals(),
                                              self._cache_base))
        c = self.counts
        m = {
            "kernels.evals": sum(fn(f"kernels:{n}", 0) for n in KERNEL_EVALS),
            "kernels.self_s": layer_self("kernels"),
            "increments.increment_cov.calls": fn("increments:increment_cov", 0),
            "increments.self_s": layer_self("increments"),
            "increments.classify_s": fn("increments:classify_stationarity", 1),
            "simulate.cov_matrix.calls": fn("simulate:cov_matrix", 0),
            "simulate.cov_matrix.s": fn("simulate:cov_matrix", 1),
            "simulate.factor_s": fn("simulate:_factor_with_jitter", 1),
            "simulate.jitter_retries": c["jitter_retries"],
            "simulate.cholesky_sample.s": fn("simulate:cholesky_sample", 1),
            "simulate.normals_drawn": c["normals_drawn"],
            "simulate.limit_partial_sums.s":
                fn("simulate:limit_partial_sums", 1),
            "simulate.limit.normals_drawn": c["limit_normals_drawn"],
            "simulate.empirical_cov.s": fn("simulate:empirical_cov", 1),
            "simulate.self_s": layer_self("simulate"),
            "movingavg.cov_moving_pair.calls":
                fn("movingavg:cov_moving_pair", 0),
            "movingavg.self_s": layer_self("movingavg"),
            "movingavg.cache_hits": hits,
            "movingavg.cache_misses": misses,
            "movingavg.cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "quadrature.quad_calls": fn("quadrature:quad", 0),
            "quadrature.neval": c["neval"],
            "quadrature.self_s": layer_self("quadrature"),
            "spectral.cov_from_density.calls":
                fn("spectral:cov_from_density", 0),
            "spectral.g_fbm.calls": fn("spectral:g_fbm", 0),
            "spectral.self_s": layer_self("spectral"),
            "lamperti.calls": layer_calls("lamperti"),
            "lamperti.self_s": layer_self("lamperti"),
            "cli.csv_s": fn("cli.csv:_write_csv", 1),
            "cli.csv_rows": c["csv_rows"],
            "cli.csv_bytes": c["csv_bytes"],
            "cli.self_s": layer_self("cli"),
        }
        m["trace.self_sum_s"] = sum(layer_self(layer) for layer in LAYERS)
        return m
