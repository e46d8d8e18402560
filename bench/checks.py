"""Independent references and output checks for the benchmark workloads.

Every reference value here is computed from the closed forms with numpy and
scipy.special; nothing in this module imports ``rectfield``.  Each check
takes the invocation's config and its output directory and returns a list
of failure messages, empty when the outputs are right.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
from scipy.special import gamma as gamma_fn
from scipy.special import xlogy

CLOSED_RTOL = 1e-10    # closed-form kernels, relative to the diagonal scale
QUAD_RTOL = 1e-8       # moving-average quadrature against its closed form
BAND = (1e-8, 1e-4)    # the classifier's invariant / violation thresholds
Z_LIMIT = 4.0
MIN_WITHIN = 0.95

# The rows each ``check`` suite emits, per identity, over the parameter
# grids the suites document.  A suite with fewer rows has skipped work.
SUITE_IDENTITIES = {
    "lemmas": {"increment_power": 16, "increment_half": 4,
               "ma_transform": 24, "ma_transform_half": 6},
    "densities": {"half_reduces_to_cauchy": 1, "unit_mass": 5,
                  "fourier_reconstruction": 6,
                  "fbm_spectral_representation": 3},
    "criteria": {"mild_criterion": 4, "density_criterion_even": 1,
                 "density_criterion_odd_perturbation": 1,
                 "density_criterion_detects_scaling": 1},
    "ma": {"dd_constraint": 4, "ma_reproduces_fbs": 4,
           "unit_variance_on_constraint": 3, "unit_variance_half_pair": 1},
}

STRICT, MILD = "strict_wide", "mild_only"
EXPECTED_LABEL = {"fbs": STRICT, "strict": STRICT, "strict2d": STRICT,
                  "zhalf": STRICT, "movingpair": STRICT,
                  "mildtheta": MILD, "yhalf": MILD}


# --------------------------------------------------------------------------
# Reference kernels, broadcast over the leading axes of s and t (last axis k)
# --------------------------------------------------------------------------

def _sym(h, t, s):
    e = 2.0 * h
    return t**e + s**e - np.abs(t - s)**e


def _skew(h, t, s):
    e = 2.0 * h
    d = t - s
    return -(t**e) + s**e + np.sign(d) * np.abs(d)**e


def _log_bracket(t, s):
    d = t - s
    return xlogy(t, t) - xlogy(s, s) - xlogy(d, np.abs(d))


def _hurst(spec):
    if spec["family"] in ("yhalf", "zhalf"):
        return np.array([0.5, 0.5])
    return np.asarray(spec["H"], dtype=float)


def _strict2d_gamma(spec):
    """Coupling of the strict 2-D kernel a moving pair reproduces."""
    h1, h2 = spec["H"]
    d0, d1 = spec["d0"], spec["d1"]
    if h1 == 0.5 and h2 == 0.5:
        return 2.0 * d0 * d1
    return 2.0 * d0 * d1 * math.cos(math.pi * h1) * math.cos(math.pi * h2)


def _mixture(H, weights, s, t):
    """Re sum_e gamma_e prod_k (sym_k + i e_k tan(pi H_k) skew_k) / 2."""
    total = np.zeros(np.broadcast_shapes(s.shape, t.shape)[:-1], dtype=complex)
    for key, g in weights.items():
        prod = np.full(total.shape, complex(g))
        for k, c in enumerate(key):
            e = 1.0 if c == "+" else -1.0
            h = H[k]
            if h == 0.5:
                f = np.minimum(t[..., k], s[..., k]) \
                    + 1j * e * _log_bracket(t[..., k], s[..., k]) / math.pi
            else:
                f = 0.5 * (_sym(h, t[..., k], s[..., k]) + 1j * e
                           * math.tan(math.pi * h) * _skew(h, t[..., k], s[..., k]))
            prod = prod * f
        total += prod
    return total.real


def _ratio(num, den):
    return np.divide(num, den, out=np.zeros(np.broadcast_shapes(
        np.shape(num), np.shape(den))), where=den > 0)


def kernel(spec, s, t):
    """Covariance K(s, t) of a field spec given as its config dictionary."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    fam = spec["family"]
    H = _hurst(spec)
    if fam == "fbs":
        return 2.0**-len(H) * np.prod(
            [_sym(h, t[..., k], s[..., k]) for k, h in enumerate(H)], axis=0)
    if fam == "strict":
        return _mixture(H, spec["weights"], s, t)
    if fam in ("strict2d", "zhalf", "movingpair"):
        g = _strict2d_gamma(spec) if fam == "movingpair" else spec["gamma"]
        a = 0.5 * (1.0 - g) / 2.0
        b = 0.5 * (1.0 + g) / 2.0
        return _mixture(H, {"++": a, "--": a, "+-": b, "-+": b}, s, t)
    if fam == "mildtheta":
        base, corr = 0.25, 1.0
        for k, h in enumerate(H):
            tk, sk = t[..., k], s[..., k]
            base = base * _sym(h, tk, sk)
            corr = corr * _ratio(tk**(2 * h) - sk**(2 * h),
                                 np.maximum(tk, sk)**(2 * h))
        return base * (1.0 + 0.25 * spec["theta"] * corr)
    if fam == "yhalf":
        mins = np.minimum(t[..., 0], s[..., 0]) * np.minimum(t[..., 1], s[..., 1])
        corr = (_ratio(t[..., 0] - s[..., 0], np.maximum(t[..., 0], s[..., 0]))
                * _ratio(t[..., 1] - s[..., 1], np.maximum(t[..., 1], s[..., 1])))
        return mins * (1.0 + 0.25 * spec["theta"] * corr)
    raise ValueError(f"no reference kernel for family {fam!r}")


def increment_cov(spec, h, a, b):
    """E[inc over [h, h+a] * inc over [h, h+b]], rows broadcast over h, a, b."""
    h, a, b = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (h, a, b)))
    n = h.shape[-1]
    total = np.zeros(h.shape[:-1])
    masks = list(itertools.product((0, 1), repeat=n))
    for m1 in masks:
        p1 = np.where(m1, h, h + a)
        for m2 in masks:
            p2 = np.where(m2, h, h + b)
            total += (-1.0)**(sum(m1) + sum(m2)) * kernel(spec, p2, p1)
    return total


def variance_law(spec, u):
    """Increment variance prod_k u_k^{2 H_k} of a box with extents u."""
    return np.prod(np.asarray(u, dtype=float)**(2.0 * _hurst(spec)), axis=-1)


def fbm_density(h, x):
    """Spectral density g_H(x) of the time-changed fractional Brownian motion."""
    x = np.asarray(x, dtype=float)
    ch = np.cosh(math.pi * x)
    return (2.0 * h / (h * h + x * x) * math.pi * gamma_fn(2.0 * h)
            / np.abs(gamma_fn(h + 1j * x))**2 * math.sin(math.pi * h)
            * ch / (ch * ch - math.cos(math.pi * h)**2) / (2.0 * math.pi))


def stationary_sheet_cov(h, v):
    """cosh(H v) - 2^{2H-1} |sinh(v/2)|^{2H}, the Lamperti image of fBm."""
    return math.cosh(h * v) - 2.0**(2 * h - 1) * abs(math.sinh(v / 2))**(2 * h)


def fbm_cov(h, s, t):
    return 0.5 * (t**(2 * h) + s**(2 * h) - abs(t - s)**(2 * h))


# --------------------------------------------------------------------------
# CSV helpers
# --------------------------------------------------------------------------

def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def vec(text: str) -> np.ndarray:
    """Parse the CLI's '[a b c]' vector format."""
    return np.array([float(v) for v in text.strip("[]").split()])


def col(rows, name, parse=float) -> np.ndarray:
    return np.array([parse(r[name]) for r in rows])


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _close(got, want, scale, rtol, what) -> list[str]:
    err = np.abs(np.asarray(got) - np.asarray(want)) / np.asarray(scale)
    if not np.all(err <= rtol):
        i = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        return [f"{what}: worst relative error {float(np.ravel(err)[i]):.3e} "
                f"> {rtol:.0e} (entry {i})"]
    return []


def _within(z, what) -> list[str]:
    frac = float(np.mean(np.abs(z) <= Z_LIMIT)) if len(z) else 0.0
    if frac < MIN_WITHIN:
        return [f"{what}: only {frac:.1%} within {Z_LIMIT:g} SE"]
    return []


def _rtol(spec):
    return QUAD_RTOL if spec["family"] == "movingpair" else CLOSED_RTOL


# --------------------------------------------------------------------------
# Per-command checks
# --------------------------------------------------------------------------

def check_simulate(cfg, out: Path) -> list[str]:
    spec, n = cfg["spec"], cfg["n_samples"]
    axes = [np.asarray(a, dtype=float) for a in cfg["grid"]["axes"]]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], -1)
    grid = np.array([[float(r[c]) for c in r if c != "index"]
                     for r in read_rows(out / "grid.csv")])
    fails = [] if grid.shape == pts.shape and np.array_equal(grid, pts) \
        else ["grid.csv: points differ from the configured tensor grid"]
    samples = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1)
    if samples.shape != (n * len(pts), 3):
        return fails + [f"samples.csv: shape {samples.shape}, "
                        f"expected {(n * len(pts), 3)}"]
    values = samples[:, 2].reshape(n, len(pts))

    K = kernel(spec, pts[:, None, :], pts[None, :, :])
    d = np.diag(K)
    rows = read_rows(out / "report.csv")
    ij = np.array([[int(v) for v in r["probe"].split("-")] for r in rows])
    i, j = ij[:, 0], ij[:, 1]
    if len(rows) != len(pts) * (len(pts) + 1) // 2:
        fails.append(f"report.csv: {len(rows)} rows")
    scale = np.sqrt(d[i] * d[j])
    ref = K[i, j]
    se = np.sqrt((d[i] * d[j] + ref**2) / n)
    emp = (values.T @ values / n)[i, j]
    fails += _close(col(rows, "reference"), ref, scale, CLOSED_RTOL,
                    "report.csv reference vs closed form")
    fails += _close(col(rows, "se"), se, se, 1e-9, "report.csv se")
    fails += _close(col(rows, "estimate"), emp, scale, 1e-9,
                    "report.csv estimate vs samples.csv")
    fails += _within((col(rows, "estimate") - ref) / se, "covariance entries")
    return fails


def _label(var_resid, cross_resid):
    lo, hi = BAND
    if var_resid <= lo and cross_resid <= lo:
        return STRICT
    if var_resid <= lo and cross_resid >= hi:
        return MILD
    if var_resid >= hi:
        return "none"
    return "inconclusive"


def check_classify(cfg, out: Path) -> list[str]:
    spec = cfg["spec"]
    expected = EXPECTED_LABEL[spec["family"]]
    summary = read_rows(out / "classify.csv")[0]
    rows = read_rows(out / "classify_probes.csv")
    want = plan_rows(len(_hurst(spec)), cfg["probes"])
    if len(rows) != len(want["kind"]):
        return [f"classify_probes.csv: {len(rows)} rows, "
                f"expected {len(want['kind'])}"]
    a, b, h = (col(rows, c, vec) for c in ("u1", "u2", "h"))
    if [r["kind"] for r in rows] != want["kind"] or not all(
            np.array_equal(got, want[c]) for got, c in ((a, "a"), (b, "b"),
                                                         (h, "h"))):
        return ["classify_probes.csv: probes differ from the configured "
                "probe plan"]
    var = np.array([k == "var" for k in want["kind"]])
    scale = np.sqrt(variance_law(spec, a) * variance_law(spec, b))
    value, reference = col(rows, "value"), col(rows, "reference")
    rtol = _rtol(spec)
    fails = []
    fails += _close(value[var], variance_law(spec, a[var]), scale[var], rtol,
                    "var rows vs prod (t-s)^(2H)")
    fails += _close(reference, increment_cov(spec, 0.0 * h, a, b), scale, rtol,
                    "unshifted increment covariance")
    fails += _close(value, increment_cov(spec, h, a, b), scale, rtol,
                    "shifted increment covariance")
    resid = np.abs(value - reference) / scale
    mine = _label(resid[var].max(initial=0.0), resid[~var].max(initial=0.0))
    if mine != expected:
        fails.append(f"residuals give label {mine}, expected {expected}")
    if summary["label"] != expected:
        fails.append(f"classify.csv label {summary['label']}, expected {expected}")
    return fails


def probe_plan(n, opts):
    """The probe plan the CLI builds from its ``probes`` options.

    Extents are drawn from [0.05, box]^N and anchors from [0, shift_box]^N
    with numpy's default generator, pairs first, as ProbePlan.default
    documents; the checks compare the regenerated plan with the CSV.
    """
    rng = np.random.default_rng(opts["seed"])
    box, shift_box = opts.get("box", 2.0), opts.get("shift_box", 3.0)
    pairs = [(rng.uniform(0.05, box, n), rng.uniform(0.05, box, n))
             for _ in range(opts["n_pairs"])]
    shifts = [rng.uniform(0.0, shift_box, n) for _ in range(opts["n_shifts"])]
    return pairs, shifts


def plan_rows(n, opts):
    """The probe rows in the CLI's order: per pair, var then cross, per shift.

    Returns the pair index, kind, extents a and b and anchor h of each row.
    """
    pairs, shifts = probe_plan(n, opts)
    want = [(p, kind, u1, u1 if kind == "var" else u2, h)
            for p, (u1, u2) in enumerate(pairs) for kind in ("var", "cross")
            for h in shifts]
    return {"probe": [w[0] for w in want], "kind": [w[1] for w in want],
            "a": np.array([w[2] for w in want]),
            "b": np.array([w[3] for w in want]),
            "h": np.array([w[4] for w in want])}


def check_mc(cfg, out: Path) -> list[str]:
    spec, n = cfg["spec"], cfg["n_samples"]
    want = plan_rows(len(_hurst(spec)), cfg["probes"])
    rows = read_rows(out / "mc.csv")
    if len(rows) != len(want["kind"]):
        return [f"mc.csv: {len(rows)} rows, expected {len(want['kind'])}"]
    h = col(rows, "h", vec)
    if not np.array_equal(h, want["h"]) or \
            [int(r["probe"]) for r in rows] != want["probe"] or \
            [r["kind"] for r in rows] != want["kind"]:
        return ["mc.csv: probes differ from the configured probe plan"]
    a, b = want["a"], want["b"]
    ref = increment_cov(spec, h, a, b)
    scale = np.sqrt(variance_law(spec, a) * variance_law(spec, b))
    se = np.sqrt((scale**2 + ref**2) / n)
    fails = _close(col(rows, "analytic"), ref, scale, _rtol(spec),
                   "mc analytic vs increment covariance")
    fails += _close(col(rows, "se"), se, se, 1e-6, "mc se")
    fails += _within((col(rows, "estimate") - ref) / se, "mc probes")
    return fails


def check_suite(cfg, out: Path) -> list[str]:
    suite = cfg["suite"]
    rows = read_rows(out / f"check_{suite}.csv")
    emitted = Counter(r["identity"] for r in rows)
    fails = [f"check_{suite}.csv: {emitted[name]} {name} rows, expected "
             f"at least {count}"
             for name, count in SUITE_IDENTITIES[suite].items()
             if emitted[name] < count]
    fails += [f"{r['identity']} {r['params']}: pass={r['pass']}"
              for r in rows if r["pass"] != "true"]
    for r in rows:
        p = json.loads(r["params"])
        closed, numeric = float(r["closed_re"]), float(r["numeric_re"])
        want = None
        if r["identity"] == "fourier_reconstruction":
            want = stationary_sheet_cov(p["H"], p["v"])
        elif r["identity"] == "fbm_spectral_representation":
            want = fbm_cov(p["H"], p["s"], p["t"])
        elif r["identity"] in ("unit_mass", "unit_variance_on_constraint",
                               "unit_variance_half_pair"):
            want = 1.0
        elif r["identity"] == "ma_reproduces_fbs":
            want = float(kernel({"family": "fbs", "H": [0.3, 0.7]},
                                np.array(p["s"]), np.array(p["t"])))
        elif r["identity"] == "density_criterion_detects_scaling":
            want = 0.4 * float(np.prod([fbm_density(h, x) for h, x in
                                        zip(p["H"], (0.5, 0.4))]))
        if want is None:
            continue
        fails += _close(closed, want, max(abs(want), 1e-300), 1e-12,
                        f"{r['identity']} {r['params']} closed value")
        fails += _close(numeric, want, 1.0, float(r["tol"]),
                        f"{r['identity']} {r['params']} numeric value")
    return fails


def check_density(cfg, out: Path) -> list[str]:
    H = _hurst(cfg["spec"])
    rows = read_rows(out / "density.csv")
    x = col(rows, "x", vec)
    if x.shape != np.shape(cfg["x"]) or not np.array_equal(x, cfg["x"]):
        return ["density.csv: x column differs from the config"]
    want = np.prod([fbm_density(h, x[:, k]) for k, h in enumerate(H)], axis=0)
    return _close(col(rows, "value"), want, want, CLOSED_RTOL,
                  "density vs g_H1(x1) g_H2(x2)")


def check_limit_demo(cfg, out: Path) -> list[str]:
    r1, r2, n = cfg["r1"], cfg["r2"], cfg["n_reps"]
    axes = cfg["t_axes"]
    pts = [(a, b) for a in axes for b in axes]
    rows = read_rows(out / "limit_demo.csv")
    m = len(pts)
    if len(rows) != m * (m + 1) // 2:
        return [f"limit_demo.csv: {len(rows)} rows, expected {m * (m + 1) // 2}"]
    ti, tj = col(rows, "t_i", vec), col(rows, "t_j", vec)
    u = np.minimum(ti, tj)
    limit = u[:, 0] * u[:, 1]
    pre = ((np.floor(u[:, 0] * r1) + 1) * (np.floor(u[:, 1] * r2) + 1)
           / (r1 * r2))
    pre_i = ((np.floor(ti[:, 0] * r1) + 1) * (np.floor(ti[:, 1] * r2) + 1)
             / (r1 * r2))
    pre_j = ((np.floor(tj[:, 0] * r1) + 1) * (np.floor(tj[:, 1] * r2) + 1)
             / (r1 * r2))
    se = np.sqrt((pre_i * pre_j + pre**2) / n)
    est = col(rows, "estimate")
    fails = []
    fails += _close(col(rows, "limit"), limit, limit, 1e-15,
                    "limit vs min(t1,s1) min(t2,s2)")
    fails += _close(col(rows, "exact_prelimit"), pre, pre, 1e-14,
                    "exact_prelimit vs (floor(u1 r1)+1)(floor(u2 r2)+1)/(r1 r2)")
    fails += _close(col(rows, "se"), se, se, 1e-12, "limit-demo se")
    bad = np.abs(est - limit) > 0.05 * limit + Z_LIMIT * se
    if bad.any():
        fails.append(f"limit-demo: {int(bad.sum())} entries outside "
                     f"5% + {Z_LIMIT:g} SE of the limit")
    return fails


CHECKS = {"simulate": check_simulate, "classify": check_classify,
          "mc": check_mc, "check": check_suite, "density": check_density,
          "limit-demo": check_limit_demo}


def check(cfg, out: Path) -> list[str]:
    return CHECKS[cfg["command"]](cfg, Path(out))
