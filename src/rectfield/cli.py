"""Command-line front end: config parsing, check suites, CSV emission.

Configuration is a single strict JSON object (unknown keys are fatal) that
can also be assembled from command-line flags; all randomness flows from
the config seed.  Every run echoes its parsed configuration to
``config_echo.json`` in the output directory, writes CSV artifacts and
prints one summary line per check.  Exit codes: 0 success, 1 failed check
(reports still written), 2 configuration error.

Each CSV table is a header row and one line per row, ended by CRLF.  A
table's row line is one ``%``-template: labels and separators are fixed
text in it, floats are formatted with ``%.17g`` (17 significant digits, so
they read back exactly) and rows are tuples taken from arrays.  Booleans
are ``true``/``false``, points are ``[a b]`` and the only quoted field is
the check suites' JSON ``params``, quoted as ``csv.writer`` would.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import numbers
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_args

import numpy as np

from . import movingavg, quadrature, spectral
from .increments import ProbePlan, classify_stationarity
from .kernels import (FieldSpec, MovingPair, NonFiniteError, StrictWeights,
                      _as_points, _points, cov_fbs, make_kernel,
                      moving_constraint_residual)
from .lamperti import c_fbs_stationary, c_theta, mild_criterion_residual
from .quadrature import OracleCheck
from .simulate import (
    MAX_WORKERS,
    MC_PLAN,
    Grid,
    PSDError,
    _limit_indices,
    empirical_cov,
    grid_from_axes,
    limit_partial_sums,
    mc_increment_stationarity,
    sample_field,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    pass


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (tuple, list, np.ndarray)):
        return "[" + " ".join(f"{float(v):.17g}" for v in np.atleast_1d(x)) + "]"
    return str(x)


# --------------------------------------------------------------------------
# Field-spec (de)serialization
# --------------------------------------------------------------------------

_SPEC_CLASSES = {c.family: c for c in get_args(FieldSpec)}
# each family's keys are its dataclass fields, with (h1, h2) written as "H"
_SPEC_FIELDS = {
    family: {"H" if f.name in ("h1", "h2") else f.name for f in fields(cls)}
    for family, cls in _SPEC_CLASSES.items()}
_SPEC_KEYS = set().union(*_SPEC_FIELDS.values())


def _signs_from_key(key: str) -> tuple:
    try:
        return tuple({"+": 1, "-": -1}[c] for c in key)
    except (KeyError, TypeError):
        raise ConfigError(
            f"spec.weights: keys must be strings of '+'/'-', got {key!r}") from None


def spec_from_dict(d) -> FieldSpec:
    if not isinstance(d, dict):
        raise ConfigError("spec: expected a JSON object")
    family = d.get("family")
    if family is None:
        raise ConfigError("spec.family: missing")
    if family not in _SPEC_FIELDS:
        raise ConfigError(f"spec.family: unknown family {family!r} "
                          f"(known: {sorted(_SPEC_FIELDS)})")
    keys = set(d) - {"family"}
    extra = keys - _SPEC_FIELDS[family]
    if extra:
        raise ConfigError(f"spec: unknown keys {sorted(extra)} for {family!r}")
    missing = _SPEC_FIELDS[family] - keys
    if missing:
        raise ConfigError(f"spec: missing keys {sorted(missing)} for {family!r}")
    try:   # every key but H and weights is one number
        args = {k: float(d[k]) for k in sorted(keys - {"H", "weights"})}
        if "weights" in d:
            if not isinstance(d["weights"], dict):
                raise ConfigError("spec.weights: expected an object mapping "
                                  "sign strings to weights")
            args["weights"] = StrictWeights(
                {_signs_from_key(k): float(v) for k, v in d["weights"].items()})
        H = tuple(float(h) for h in d.get("H", ()))
        if "H" in _SPEC_CLASSES[family].__dataclass_fields__:
            args["H"] = H
        elif "H" in d:
            if len(H) != 2:
                raise ConfigError(f"spec.H: expected 2 components for {family!r}")
            args["h1"], args["h2"] = H
        return _SPEC_CLASSES[family](**args)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"spec ({family}): {exc}") from exc


def spec_to_dict(spec: FieldSpec) -> dict:
    d = {"family": spec.family}
    for key in _SPEC_FIELDS[spec.family]:
        d[key] = (list(spec.hurst) if key == "H" else getattr(spec, key))
    if "weights" in d:
        d["weights"] = {"".join("+" if v > 0 else "-" for v in e): g
                        for e, g in sorted(spec.weights.gamma_by_sign.items())}
    return d


# --------------------------------------------------------------------------
# Config validation
# --------------------------------------------------------------------------

_COMMON_KEYS = {"command", "seed", "out"}
_COMMAND_KEYS = {
    "cov": {"spec", "s", "t"},
    "density": {"spec", "x"},
    "check": {"suite", "tol"},
    "classify": {"spec", "probes"},
    "simulate": {"spec", "grid", "n_samples", "n_workers"},
    "mc": {"spec", "probes", "n_samples", "n_workers"},
    "limit-demo": {"r1", "r2", "t_axes", "t_points", "n_reps"},
}
_COMMANDS = tuple(_COMMAND_KEYS)
# the keys without a default, required wherever a command takes them
_REQUIRED = ("spec", "s", "t", "x", "r1", "r2")
_PROBE_KEYS = {"n_pairs", "n_shifts", "box", "shift_box", "seed"}
_DEFAULT_TOL = 1e-6
_DEFAULT_N = {"simulate": 5000, "mc": 20000}
# The simulate and mc gates allow 4 analytic SE, about 4/sqrt(n) of the
# variance scale, so a handful of samples passes any covariance.
_MIN_N_SAMPLES = 100
# Ceilings on the work a config may ask for, checked before any of it is
# allocated.  A grid of MAX_GRID_POINTS points has a 128 MiB covariance
# matrix; simulate holds n_samples x grid points draws, at most
# MAX_SAMPLE_VALUES (128 MiB).  The limit demo's t points share the grid's
# ceiling: it keeps three matrices of their pairs.
MAX_N_SAMPLES = 1_000_000
MAX_GRID_POINTS = 4096
MAX_SAMPLE_VALUES = 1 << 24
MAX_N_REPS = 1_000_000
MAX_PROBE_PAIRS = 1000
MAX_PROBE_SHIFTS = 100
# mc draws n_samples rows per probe pair and shift of its plan, at most the
# classifier's default 20 x 10 plan at MAX_N_SAMPLES (MC_PLAN stays below).
MAX_MC_DRAWS = 20 * 10 * MAX_N_SAMPLES
_PROBE_MAX = {"n_pairs": MAX_PROBE_PAIRS, "n_shifts": MAX_PROBE_SHIFTS}


def _number(value, name, kind, lo=None, hi=None):
    """A finite int or float config value within [lo, hi]."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    want = numbers.Integral if kind is int else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, want)
            or (isinstance(value, float) and not math.isfinite(value))):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{name}: expected {what}, got {value!r}")
    value = kind(value)
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        raise ConfigError(f"{name}: must lie in [{lo}, "
                          f"{'inf' if hi is None else hi}], got {value}")
    return value


def _checked(where: str, check, *args, **kwargs):
    """Return ``check(*args, **kwargs)``; its ValueError or TypeError is
    raised as a ConfigError led by ``where`` (a key and ": ", or "probes.")."""
    try:
        return check(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{exc}") from None


@dataclass
class RunConfig:
    """A validated run: the echoed ``params`` and the inputs built from them."""

    command: str
    spec: FieldSpec | None
    params: dict
    grid: Grid | None = None
    plan: ProbePlan | None = None
    t_points: np.ndarray | None = None

    def canonical(self) -> dict:
        spec = {} if self.spec is None else {"spec": spec_to_dict(self.spec)}
        return {"command": self.command, **spec, **self.params}

    def to_json(self) -> str:
        return json.dumps(self.canonical(), indent=2, sort_keys=True)

    def __eq__(self, other):
        return (isinstance(other, RunConfig)
                and self.canonical() == other.canonical())


def validate_config(cfg: dict) -> RunConfig:
    if not isinstance(cfg, dict):
        raise ConfigError("top level: expected a JSON object")
    command = cfg.get("command")
    if command is None:
        raise ConfigError("command: missing")
    if command not in _COMMANDS:
        raise ConfigError(f"command: unknown command {command!r} "
                          f"(known: {list(_COMMANDS)})")
    allowed = _COMMON_KEYS | _COMMAND_KEYS[command]
    extra = set(cfg) - allowed
    if extra:
        raise ConfigError(f"unknown keys {sorted(extra)} for command "
                          f"{command!r} (strict mode)")
    missing = [k for k in _REQUIRED if k in allowed and k not in cfg]
    if missing:
        raise ConfigError(f"{missing[0]}: required for command {command!r}")

    params: dict = {}
    params["seed"] = _number(cfg.get("seed", 0), "seed", int)
    if not 0 <= params["seed"] < 2**64:
        raise ConfigError(f"seed: must be an unsigned 64-bit integer, "
                          f"got {params['seed']}")
    params["out"] = str(cfg.get("out", "."))

    spec = grid = plan = t_points = None
    if "spec" in allowed:
        spec = spec_from_dict(cfg["spec"])
        n = len(spec.hurst)

    if command == "cov":
        for key in ("s", "t"):
            pt = _checked(f"{key}: ", lambda: _as_points(cfg[key], n).reshape(n))
            params[key] = pt.tolist()
    elif command == "density":
        if spec.family != "fbs":
            raise ConfigError(f"spec.family: density is only available for "
                              f"'fbs', not {spec.family!r}")
        params["x"] = _checked("x: ", _points, cfg["x"], n).reshape(-1, n).tolist()
    elif command == "check":
        suite = cfg.get("suite")
        if suite not in _SUITES:
            raise ConfigError(f"suite: expected one of {'/'.join(_SUITES)}, "
                              f"got {suite!r}")
        params["suite"] = suite
        if suite == _TOL_SUITE:
            params["tol"] = _number(cfg.get("tol", _DEFAULT_TOL), "tol", float)
            if params["tol"] <= 0.0:
                raise ConfigError(f"tol: must be positive, got {params['tol']}")
        elif "tol" in cfg:
            raise ConfigError(f"tol: only suite {_TOL_SUITE!r} takes a "
                              f"tolerance; suite {suite!r} has fixed tolerances")
    elif command in ("classify", "mc"):
        probes = cfg.get("probes", {})
        if not isinstance(probes, dict):
            raise ConfigError("probes: expected an object")
        extra = set(probes) - _PROBE_KEYS
        if extra:
            raise ConfigError(f"probes: unknown keys {sorted(extra)}")
        params["probes"] = {
            k: (_number(v, f"probes.{k}", float) if k in ("box", "shift_box")
                else _number(v, f"probes.{k}", int, lo=0 if k == "seed" else 1,
                             hi=_PROBE_MAX.get(k)))
            for k, v in probes.items()}
        plan = _checked("probes.", ProbePlan.default, n,   # mc: MC_PLAN size
                        **{**(MC_PLAN if command == "mc" else {}),
                           **params["probes"]})
    elif command == "simulate":
        raw = cfg.get("grid", {"axes": [[0.5, 1.0, 1.5, 2.0, 2.5]] * n})
        if (not isinstance(raw, dict) or len(raw) != 1
                or not set(raw) <= {"axes", "points"}):
            raise ConfigError("grid: expected {'axes': [...]} or {'points': [...]}")
        if "axes" in raw:   # the ceiling is checked before the grid is built
            value = _checked("grid: ", lambda: [np.asarray(a, dtype=float)
                                                for a in raw["axes"]])
            build, n_points = grid_from_axes, math.prod(a.size for a in value)
            params["grid"] = {"axes": [a.tolist() for a in value]}
        else:
            value = np.atleast_2d(_checked("grid: ", np.asarray, raw["points"],
                                           float))
            build, n_points = Grid, len(value)
            params["grid"] = {"points": value.tolist()}
        if n_points > MAX_GRID_POINTS:
            raise ConfigError(f"grid: {n_points} points exceed {MAX_GRID_POINTS}")
        grid = _checked("grid: ", build, value)
        _checked("grid: ", _as_points, grid.points, n)   # the spec's dimension
    elif command == "limit-demo":
        for key in ("r1", "r2"):
            params[key] = _number(cfg[key], key, int)
        if "t_points" in cfg and "t_axes" in cfg:
            raise ConfigError("limit-demo: give either t_axes or t_points")
        key = "t_points" if "t_points" in cfg else "t_axes"
        pts = _checked(f"{key}: ", np.asarray,
                       cfg.get(key, [0.5, 1.0, 1.5, 2.0]), float)
        if key == "t_axes" and pts.ndim > 1:
            raise ConfigError("t_axes: expected a number or a list of numbers")
        n_points = pts.size ** 2 if key == "t_axes" else len(np.atleast_2d(pts))
        if n_points > MAX_GRID_POINTS:
            raise ConfigError(f"{key}: {n_points} points exceed "
                              f"{MAX_GRID_POINTS}")
        t_points = (np.stack(np.meshgrid(pts, pts, indexing="ij"), -1)
                    .reshape(-1, 2) if key == "t_axes" else np.atleast_2d(pts))
        _checked(f"{key}: ", _limit_indices, params["r1"], params["r2"],
                 t_points)
        params[key] = (pts.ravel() if key == "t_axes" else t_points).tolist()
        params["n_reps"] = _number(cfg.get("n_reps", 2000), "n_reps", int,
                                   lo=2, hi=MAX_N_REPS)
    if command in _DEFAULT_N:
        params["n_samples"] = _number(cfg.get("n_samples", _DEFAULT_N[command]),
                                      "n_samples", int, lo=_MIN_N_SAMPLES,
                                      hi=MAX_N_SAMPLES)
        if (command == "simulate"
                and params["n_samples"] * n_points > MAX_SAMPLE_VALUES):
            raise ConfigError(
                f"n_samples: {params['n_samples']} samples of {n_points} "
                f"grid points exceed {MAX_SAMPLE_VALUES} values")
        if command == "mc" and (params["n_samples"] * len(plan.u_pairs)
                                * len(plan.shifts) > MAX_MC_DRAWS):
            raise ConfigError(
                f"n_samples: {params['n_samples']} samples for each of "
                f"{len(plan.u_pairs)} x {len(plan.shifts)} probe pairs and "
                f"shifts exceed {MAX_MC_DRAWS} draws")
        params["n_workers"] = _number(cfg.get("n_workers", 1), "n_workers",
                                      int, lo=1, hi=MAX_WORKERS)

    return RunConfig(command=command, spec=spec, params=params, grid=grid,
                     plan=plan, t_points=t_points)


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config; errors cite the offending location."""
    return validate_config(_load_json(text))


# --------------------------------------------------------------------------
# Check suites
# --------------------------------------------------------------------------

def _suite_lemmas(tol):
    return [(chk, tol) for chk in quadrature.identity_sweep()]


def _suite_densities():
    xs = np.arange(-10.0, 10.0 + 1e-9, 0.1)
    rel = np.max(np.abs(spectral.g_fbm(0.5, xs) - spectral.g_w(xs))
                 / spectral.g_w(xs))
    checks = [(OracleCheck("half_reduces_to_cauchy",
                           {"grid": "[-10,10]/0.1"}, rel, 0.0), 1e-10)]
    for H in (0.1, 0.3, 0.5, 0.7, 0.9):
        mass = spectral.cov_from_density(spectral.fbm_density(H), (0.0,)).value
        checks.append((OracleCheck("unit_mass", {"H": H}, mass, 1.0), 1e-6))
    lags = (-2.0, 0.7, 2.5)
    for H in (0.3, 0.7):
        wants = c_fbs_stationary((H,), np.array(lags)[:, None])
        for v, want in zip(lags, wants):
            got = spectral.cov_from_density(spectral.fbm_density(H), (v,)).value
            checks.append((OracleCheck("fourier_reconstruction",
                                       {"H": H, "v": v}, got, want), 1e-4))
    for H, s, t in ((0.3, 1.0, 2.0), (0.7, 0.5, 3.0), (0.5, 1.0, math.e)):
        spec_v, closed_v = spectral.fbm_spectral_cov_check(H, s, t)
        checks.append((OracleCheck("fbm_spectral_representation",
                                   {"H": H, "s": s, "t": t}, spec_v,
                                   closed_v), 1e-4))
    return checks


def _suite_criteria():
    checks = []
    lags = np.stack(np.meshgrid(np.linspace(-3.0, 3.0, 7),
                                np.linspace(-3.0, 3.0, 7), indexing="ij"), -1)
    for h1, h2 in ((0.3, 0.7), (0.5, 0.5)):
        for theta in (-1.0, 1.0):
            worst = np.max(np.abs(mild_criterion_residual(
                lambda v: c_theta(h1, h2, theta, v), (h1, h2), lags)))
            checks.append((OracleCheck("mild_criterion",
                                       {"H": [h1, h2], "theta": theta},
                                       worst, 0.0), 1e-12))
    H = (0.3, 0.7)
    freqs = np.stack(np.meshgrid((-2.0, 0.5, 1.5), (-1.0, 0.4, 2.0),
                                 indexing="ij"), -1)
    dens = spectral.product_density(H)
    worst = np.max(np.abs(spectral.density_criterion_residual(dens, H, freqs)))
    checks.append((OracleCheck("density_criterion_even", {"H": list(H)},
                               worst, 0.0), 1e-12))
    ((_, g),) = dens.terms
    # g (1 + 0.5 tanh(x1) tanh(x2)): an odd perturbation of the sheet's density
    fdens = spectral.SpectralDensity(
        ((1.0, g), (0.5, tuple((lambda x, gk=gk: gk(x) * np.tanh(x))
                               for gk in g))))
    worst = np.max(np.abs(spectral.density_criterion_residual(fdens, H, freqs)))
    checks.append((OracleCheck("density_criterion_odd_perturbation",
                               {"H": list(H), "delta": 0.5}, worst, 0.0),
                   1e-12))
    scaled = spectral.SpectralDensity(((1.1, g),))
    resid = spectral.density_criterion_residual(scaled, H, (0.5, 0.4))
    expect = 0.1 * 4 * spectral.g_product(H, (0.5, 0.4))
    checks.append((OracleCheck("density_criterion_detects_scaling",
                               {"H": list(H)}, resid, expect), 1e-12))
    return checks


def _suite_ma():
    checks = []
    d = 1.0 / math.sqrt(3.0)
    for h1, h2, d0, d1 in ((0.3, 0.7, 1.0, 0.0), (0.5, 0.5, 1.0, 0.0),
                           (0.5, 0.5, 0.0, 1.0), (0.25, 0.25, d, d)):
        res = moving_constraint_residual(h1, h2, d0, d1)
        checks.append((OracleCheck("dd_constraint", {"H": [h1, h2], "d0": d0,
                                                     "d1": d1}, res, 0.0),
                       1e-12))

    spec = MovingPair(0.3, 0.7, 1.0, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(4):
        s = rng.uniform(0.3, 2.0, 2)
        t = rng.uniform(0.3, 2.0, 2)
        got = movingavg.cov_moving_pair(spec, s, t)
        want = cov_fbs((0.3, 0.7), s, t)
        checks.append((OracleCheck("ma_reproduces_fbs",
                                   {"s": list(s), "t": list(t)}, got, want),
                       1e-3))
    sin2 = math.sin(math.pi * 0.3) * math.sin(math.pi * 0.7)
    for d0 in (1.0, 0.4, -0.6):
        d1 = -d0 * sin2 + math.sqrt(max(d0 * d0 * (sin2 * sin2 - 1.0) + 1.0, 0.0))
        sp = MovingPair(0.3, 0.7, d0, d1)
        got = movingavg.cov_moving_pair(sp, (1.0, 1.0), (1.0, 1.0))
        checks.append((OracleCheck("unit_variance_on_constraint",
                                   {"d0": d0, "d1": d1}, got, 1.0), 1e-3))
    sp = MovingPair(0.5, 0.5, 0.0, 1.0)
    got = movingavg.cov_moving_pair(sp, (1.0, 1.0), (1.0, 1.0))
    checks.append((OracleCheck("unit_variance_half_pair",
                               {"d0": 0.0, "d1": 1.0}, got, 1.0), 1e-3))
    return checks


# the suite that takes the config's ``tol``; the others have fixed tolerances
_TOL_SUITE = "lemmas"
_SUITES = {_TOL_SUITE: _suite_lemmas, "densities": _suite_densities,
           "criteria": _suite_criteria, "ma": _suite_ma}


# --------------------------------------------------------------------------
# Command execution
# --------------------------------------------------------------------------

def _quoted(text: str) -> str:
    """A text cell as ``csv.writer`` quotes it (QUOTE_MINIMAL)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@contextlib.contextmanager
def _artifact(path: Path):
    """``path`` open for writing; an OSError there is a ConfigError on out."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            yield fh
    except OSError as exc:   # e.g. out names a file, or the disk is full
        raise ConfigError(f"out: {exc}") from None


def _write_csv(path: Path, rows, columns, template: str):
    """A CSV table: the ``columns`` header, then ``template % row`` per row.

    ``template`` is one whole row line, CRLF included: fixed text as is,
    ``%.17g`` per float cell, ``%d`` per integer and ``%s`` per cell that
    ``_fmt`` or ``_quoted`` has rendered.  ``rows`` is a sequence of tuples.
    """
    with _artifact(path) as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(template % row for row in rows)


def _write_samples(path: Path, values: np.ndarray):
    """samples.csv, one (rep, point, value) line per draw, a rep at a time.

    A rep's lines share one template in which the rep and point labels are
    fixed text, so only the values are formatted.
    """
    template = "".join(f"\0,{p},%.17g\r\n" for p in range(values.shape[1]))
    with _artifact(path) as fh:
        fh.write("rep,point,value\r\n")
        for rep, row in enumerate(values):
            fh.write(template.replace("\0", str(rep)) % tuple(row.tolist()))


def run(config: RunConfig) -> int:
    """Execute a validated config; write CSV artifacts and echo the config."""
    need = {"simulate": "grid", "classify": "plan", "mc": "plan",
            "limit-demo": "t_points"}.get(config.command)
    if need and getattr(config, need) is None:   # a RunConfig built by hand
        raise ConfigError(f"{need}: missing; build the RunConfig with validate_config")
    out_dir = Path(config.params["out"])
    with _artifact(out_dir / "config_echo.json") as fh:
        fh.write(config.to_json() + "\n")
    return _HANDLERS[config.command](config, out_dir)


def _run_cov(cfg, out_dir):
    """Evaluate a covariance kernel at (s, t)."""
    value = make_kernel(cfg.spec)(cfg.params["s"], cfg.params["t"])
    if not math.isfinite(value):   # main names s and t
        raise NonFiniteError(f"kernel returned non-finite value {value}")
    _write_csv(out_dir / "cov.csv",
               [(cfg.spec.family, _fmt(cfg.params["s"]), _fmt(cfg.params["t"]),
                 value)],
               ["family", "s", "t", "value"], "%s,%s,%s,%.17g\r\n")
    print(f"cov[{cfg.spec.family}] K(s,t) = {value:.17g}")
    return 0


def _run_density(cfg, out_dir):
    """Evaluate a spectral density."""
    values = spectral.g_product(cfg.spec.hurst, cfg.params["x"])
    rows = list(zip(map(_fmt, cfg.params["x"]), values.tolist()))
    _write_csv(out_dir / "density.csv", rows, ["x", "value"], "%s,%.17g\r\n")
    print(f"density[{cfg.spec.family}] wrote {len(rows)} values")
    return 0


def _run_check(cfg, out_dir):
    """Run a verification suite."""
    suite = cfg.params["suite"]
    checks = (_SUITES[suite](cfg.params["tol"]) if suite == _TOL_SUITE
              else _SUITES[suite]())
    params = [json.dumps(c.params, sort_keys=True) for c, _ in checks]
    passed = [c.passed(tol) for c, tol in checks]
    _write_csv(out_dir / f"check_{suite}.csv",
               [(c.identity, _quoted(text), c.numeric.real, c.numeric.imag,
                 c.closed.real, c.closed.imag, c.abs_error, tol, _fmt(ok))
                for (c, tol), text, ok in zip(checks, params, passed)],
               ["identity", "params", "numeric_re", "numeric_im", "closed_re",
                "closed_im", "abs_err", "tol", "pass"],
               "%s,%s" + ",%.17g" * 6 + ",%s\r\n")
    for (c, _), text, ok in zip(checks, params, passed):
        print(f"{'PASS' if ok else 'FAIL'} {c.identity} {text} "
              f"abs_err={c.abs_error:.3e}")
    n_fail = passed.count(False)
    print(f"suite {suite}: {len(checks) - n_fail}/{len(checks)} passed")
    return 0 if n_fail == 0 else 1


def _run_classify(cfg, out_dir):
    """Classify increment stationarity."""
    report = classify_stationarity(make_kernel(cfg.spec), plan=cfg.plan)
    label = report.label.value if report.label is not None else "inconclusive"
    _write_csv(out_dir / "classify.csv",
               [(cfg.spec.family, label, report.max_var_residual,
                 report.max_cross_residual)],
               ["family", "label", "max_var_residual", "max_cross_residual"],
               "%s,%s,%.17g,%.17g\r\n")
    _write_csv(out_dir / "classify_probes.csv",
               [(r["kind"], _fmt(r["u1"]), _fmt(r["u2"]), _fmt(r["h"]),
                 r["value"], r["reference"], r["residual"])
                for r in report.rows],
               ["kind", "u1", "u2", "h", "value", "reference", "residual"],
               "%s,%s,%s,%s,%.17g,%.17g,%.17g\r\n")
    print(f"classify[{cfg.spec.family}] -> {label} "
          f"(var {report.max_var_residual:.2e}, cross {report.max_cross_residual:.2e})")
    return 0 if report.label is not None else 1


def _run_simulate(cfg, out_dir):
    """Sample a field and verify covariance."""
    grid = cfg.grid
    batch = sample_field(cfg.spec, grid, cfg.params["seed"],
                         cfg.params["n_samples"],
                         n_workers=cfg.params["n_workers"])
    emp, se = empirical_cov(batch, batch.cov)

    _write_csv(out_dir / "grid.csv",
               list(zip(range(grid.n_points), *grid.points.T.tolist())),
               ["index"] + [f"t{k + 1}" for k in range(grid.dim)],
               "%d" + ",%.17g" * grid.dim + "\r\n")
    _write_samples(out_dir / "samples.csv", batch.values)

    i, j = np.triu_indices(grid.n_points)
    est, sd, ref = emp[i, j], se[i, j], batch.cov[i, j]
    z = (est - ref) / sd
    within = int(np.count_nonzero(np.abs(z) <= 4.0))
    _write_csv(out_dir / "report.csv",
               list(zip(i.tolist(), j.tolist(), est.tolist(), sd.tolist(),
                        ref.tolist(), z.tolist())),
               ["probe", "statistic", "estimate", "se", "reference", "z"],
               "%d-%d,cov,%.17g,%.17g,%.17g,%.17g\r\n")
    print(f"simulate[{cfg.spec.family}] n={batch.n_samples} "
          f"{within}/{len(z)} covariance entries within 4 SE")
    return 0 if within / len(z) >= 0.95 else 1


def _run_mc(cfg, out_dir):
    """Monte Carlo increment-stationarity probes."""
    rows = mc_increment_stationarity(
        cfg.spec, plan=cfg.plan, seed=cfg.params["seed"],
        n_samples=cfg.params["n_samples"],
        n_workers=cfg.params["n_workers"])
    cols = ["probe", "kind", "h", "estimate", "se", "reference", "analytic",
            "z_reference", "z_analytic"]
    _write_csv(out_dir / "mc.csv",
               [(r["probe"], r["kind"], _fmt(r["h"]), *(r[c] for c in cols[3:]))
                for r in rows],
               cols, "%d,%s,%s" + ",%.17g" * 6 + "\r\n")
    bad = sum(abs(r["z_analytic"]) > 4.0 for r in rows)
    print(f"mc[{cfg.spec.family}] {len(rows) - bad}/{len(rows)} probes "
          f"within 4 SE of analytic increment covariance")
    return 0 if bad / max(len(rows), 1) <= 0.05 else 1


def _run_limit_demo(cfg, out_dir):
    """Partial-sum convergence demo."""
    demo = limit_partial_sums(cfg.params["r1"], cfg.params["r2"],
                              cfg.t_points, seed=cfg.params["seed"],
                              n_reps=cfg.params["n_reps"])
    i, j = np.triu_indices(len(cfg.t_points))
    est, se = demo.emp_cov[i, j], demo.se[i, j]
    limit = demo.limit_cov[i, j]
    passed = np.abs(est - limit) <= 0.05 * np.abs(limit) + 4.0 * se
    ok = int(np.count_nonzero(passed))
    labels = np.array([_fmt(t) for t in cfg.t_points])
    _write_csv(out_dir / "limit_demo.csv",
               list(zip(labels[i].tolist(), labels[j].tolist(), est.tolist(),
                        se.tolist(), demo.exact_cov[i, j].tolist(),
                        limit.tolist(),
                        np.where(passed, "true", "false").tolist())),
               ["t_i", "t_j", "estimate", "se", "exact_prelimit", "limit",
                "pass"], "%s,%s,%.17g,%.17g,%.17g,%.17g,%s\r\n")
    total = len(passed)
    print(f"limit-demo r=({cfg.params['r1']},{cfg.params['r2']}) "
          f"n_reps={demo.n_reps}: {ok}/{total} entries within 5% + 4 SE "
          f"of the limit covariance")
    return 0 if ok == total else 1


# the handler of each command is its ``_run_`` function
_HANDLERS = {c: globals()["_run_" + c.replace("-", "_")] for c in _COMMANDS}


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------

# the argparse options of each config key that has a flag, spelled as the
# key with "-" for "_"; grid, probes, t_axes, t_points and the strict
# weights need --config
_FLAGS = {
    "out": {"help": "output directory for CSV artifacts"},
    "seed": {"type": int},
    "spec": {"help": f"family name ({', '.join(_SPEC_FIELDS)})"},
    "H": {"type": float, "nargs": "+", "help": "Hurst components"},
    **dict.fromkeys(("theta", "gamma", "d0", "d1", "tol"), {"type": float}),
    **dict.fromkeys(("s", "t", "x"), {"type": float, "nargs": "+"}),
    "suite": {"choices": tuple(_SUITES)},
    **dict.fromkeys(("n_samples", "n_workers", "r1", "r2", "n_reps"),
                    {"type": int}),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _build_parser(commands=_COMMANDS):
    """The parser of ``commands``; its usage names all, as the full one's."""
    parser = argparse.ArgumentParser(
        prog="rectfield",
        description="Self-similar Gaussian random fields: kernels, spectral "
                    "densities, oracle checks, and exact simulation.")
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        None if tuple(commands) == _COMMANDS else "{%s}" % ",".join(_COMMANDS)))
    for command in commands:
        keys = _COMMON_KEYS | _COMMAND_KEYS[command]
        if "spec" in keys:
            keys |= _SPEC_KEYS
        p = sub.add_parser(command, help=_HANDLERS[command].__doc__)
        p.add_argument("--config", type=Path, help="JSON config file")
        for key, opts in _FLAGS.items():
            if key in keys:
                p.add_argument(_flag(key), **opts)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    named = [c for c in _COMMANDS if [c] == argv[:1]]   # build its flags only
    args = _build_parser(named or _COMMANDS).parse_args(argv)
    try:   # args.config is a Path
        text = "{}" if args.config is None else args.config.read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return 2
    cfg: dict = {}
    spec: dict = {}
    for key, v in vars(args).items():
        if v is not None and key != "config":
            (spec if key in _SPEC_KEYS else cfg)[key] = v
    try:
        if "spec" in cfg:   # --spec names the family of the other spec flags
            cfg["spec"] = {"family": cfg["spec"], **spec}
        elif spec:
            raise ConfigError(f"{', '.join(map(_flag, spec))} need --spec")
        raw = _load_json(text)
        # flags override the file; validate_config rejects a non-object
        config = validate_config({**raw, **cfg} if isinstance(raw, dict)
                                 else raw)
        return run(config)
    except ConfigError as exc:
        message = str(exc)
    except PSDError as exc:   # e.g. a mild theta far outside [-1, 1]
        message = (f"spec: the covariance is not positive semidefinite on "
                   f"this grid: {exc}")
    except NonFiniteError as exc:   # e.g. points too far out for the kernel
        keys = _COMMAND_KEYS[config.command] & {"s", "t", "grid", "probes"}
        message = (f"{', '.join(sorted(keys))}: the covariance is not "
                   f"finite: {exc}")
    print(f"config error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
