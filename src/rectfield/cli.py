"""Command-line front end: config parsing, running check suites, CSV emission.

Configuration is a single strict JSON object (unknown keys are fatal) that
can also be assembled from command-line flags; all randomness flows from
the config seed.  Every run echoes its parsed configuration to
``config_echo.json`` in the output directory, writes CSV artifacts and
prints one summary line per check.  Exit codes: 0 success, 1 failed check
(reports still written), 2 configuration error.

Each CSV table is a header row and one line per row, ended by CRLF.  A
table's row line is one ``%``-template, and each cell is a field of it:
labels and separators are fixed text, floats are ``%.17g`` (17 significant
digits, so they read back exactly), a point is ``[a b]`` with one
``%.17g`` per coordinate, and rows are tuples taken from arrays.  Booleans
are the text ``true``/``false``, and the only quoted field is the check
suites' JSON ``params``, quoted as ``csv.writer`` would.  ``samples.csv``
and ``report.csv`` are formatted from arrays instead, with the same bytes,
a block of lines at a time, BLOCK floats at most: ``_write_report`` hands
``csvtext.write_lines`` each block, and ``_write_samples`` fills a block
of whole reps itself, with one ``csvtext.format_17g`` call.  The two
tables that grow as the square of the points, ``report.csv`` and
``limit_demo.csv``, are computed a block of pairs at a time by one walk,
``_pair_blocks``;
``limit_demo.csv`` keeps its row template, since ``csvtext``'s fixed cost
per table outweighs its gain on the few hundred lines of a usual demo.
Every artifact is written as bytes.

A check suite sits in the module of its oracles: ``lemmas`` is
``quadrature.identity_sweep``, paired here with the config's ``tol``;
``densities`` and ``criteria`` are in ``spectral``, ``ma`` in ``movingavg``.
A suite's ``scipy`` names the compiled SciPy modules validation loads for it.
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

from . import csvtext, movingavg, quadrature, spectral
from .gammafn import _LOGGAMMA, _scipy_extension
from .increments import ProbePlan, classify_stationarity
from .kernels import (FieldSpec, NonFiniteError, StrictWeights, _as_points,
                      _points, make_kernel)
from .simulate import (
    MAX_WORKERS,
    MC_PLAN,
    Grid,
    PSDError,
    _limit_indices,
    _limit_scale,
    empirical_cov,
    grid_from_axes,
    limit_partial_sums,
    mc_increment_stationarity,
    sample_field,
)

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]


class ConfigError(ValueError):
    pass


def _point_field(n: int) -> str:
    """The row-template field of an n-point, ``[a b]`` with one ``%.17g``
    per coordinate: the row tuple carries the coordinates."""
    return "[" + " ".join(["%.17g"] * n) + "]"


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
    if not isinstance(family, str) or family not in _SPEC_FIELDS:
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
        H = tuple(float(h) for h in _json_numbers(d.get("H", ()), "spec.H"))
        if len(H) > MAX_DIM:   # before the weights and the spec are built
            raise ConfigError(f"spec.H: {len(H)} components exceed {MAX_DIM}")
        args = {k: float(_json_numbers(d[k], f"spec.{k}"))
                for k in sorted(keys - {"H", "weights"})}
        if "weights" in d:
            if not isinstance(d["weights"], dict):
                raise ConfigError("spec.weights: expected an object mapping "
                                  "sign strings to weights")
            args["weights"] = StrictWeights(
                {_signs_from_key(k): float(_json_numbers(v, "spec.weights"))
                 for k, v in d["weights"].items()})
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
# ceiling: LimitDemo holds four m x m matrices of their pairs (32 MiB at
# m = 1024, with a 48 MiB peak while it is built) and its CSV adds none.
# A spec's work grows like 4^N in its dimension N (classify's default plan
# at N = 7 peaks near 80 MB), so H has at most MAX_DIM components.
MAX_DIM = 7
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


def _json_numbers(value, name):
    """``value`` once no leaf of its nested lists is a string, a boolean or
    null, which ``float`` and ``np.asarray`` would read as numbers."""
    if isinstance(value, (list, tuple)):
        for v in value:
            _json_numbers(v, name)
    elif value is None or isinstance(value, (str, bool)):
        raise ConfigError(f"{name}: expected a number, got {value!r}")
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
    params["out"] = cfg.get("out", ".")
    if not isinstance(params["out"], str):
        raise ConfigError(f"out: expected a string, got {params['out']!r}")

    spec = grid = plan = t_points = None
    if "spec" in allowed:
        spec = spec_from_dict(cfg["spec"])
        n = len(spec.hurst)

    if command == "cov":
        for key in ("s", "t"):
            pt = _checked(f"{key}: ", lambda p: _as_points(p, n).reshape(n),
                          _json_numbers(cfg[key], key))
            params[key] = pt.tolist()
    elif command == "density":
        if spec.family != "fbs":
            raise ConfigError(f"spec.family: density is only available for "
                              f"'fbs', not {spec.family!r}")
        params["x"] = _checked("x: ", _points, _json_numbers(cfg["x"], "x"),
                               n).reshape(-1, n).tolist()
        _scipy_extension(_LOGGAMMA)   # g_H's log-gamma: load it before the run
    elif command == "check":
        suite = cfg.get("suite")
        if not isinstance(suite, str) or suite not in _SUITES:
            raise ConfigError(f"suite: expected one of {'/'.join(_SUITES)}, "
                              f"got {suite!r}")
        params["suite"] = suite
        for name in _SUITES[suite].scipy:   # load them before the run
            _scipy_extension(name)
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
            axes = _json_numbers(raw["axes"], "grid.axes")
            value = _checked("grid: ", lambda: [np.asarray(a, dtype=float)
                                                for a in axes])
            if any(a.ndim > 1 for a in value):   # meshgrid would flatten it
                raise ConfigError("grid.axes: expected a list of axes, each "
                                  "a number or a list of numbers")
            build, n_points = grid_from_axes, math.prod(a.size for a in value)
            params["grid"] = {"axes": [a.tolist() for a in value]}
        else:
            value = np.atleast_2d(_checked("grid: ", np.asarray, _json_numbers(
                raw["points"], "grid.points"), float))
            build, n_points = Grid, len(value)
            params["grid"] = {"points": value.tolist()}
        if n_points > MAX_GRID_POINTS:
            raise ConfigError(f"grid: {n_points} points exceed {MAX_GRID_POINTS}")
        grid = _checked("grid: ", build, value)
        _checked("grid: ", _as_points, grid.points, n)   # the spec's dimension
    elif command == "limit-demo":
        for k in ("r1", "r2"):   # _limit_scale's message names the factor
            params[k] = _checked("", _limit_scale, k, _number(cfg[k], k, int))
        if "t_points" in cfg and "t_axes" in cfg:
            raise ConfigError("limit-demo: give either t_axes or t_points")
        key = "t_points" if "t_points" in cfg else "t_axes"
        pts = _checked(f"{key}: ", np.asarray, _json_numbers(
            cfg.get(key, [0.5, 1.0, 1.5, 2.0]), key), float)
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
        if params["n_workers"] > 1:   # the sampler's pool, loaded here
            from concurrent.futures import ThreadPoolExecutor  # noqa: F401

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
# Command execution
# --------------------------------------------------------------------------

def _quoted(text: str) -> str:
    """A text cell as ``csv.writer`` quotes it (QUOTE_MINIMAL)."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


@contextlib.contextmanager
def _artifact(path: Path):
    """``path`` open for writing bytes; an OSError there is a ConfigError
    on out."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            yield fh
    except OSError as exc:   # e.g. out names a file, or the disk is full
        raise ConfigError(f"out: {exc}") from None


def _write_csv(path: Path, rows, columns, template: str):
    """A CSV table: the ``columns`` header, then ``template % row`` per row.

    ``template`` is one whole row line, CRLF included: fixed text as is,
    ``%.17g`` per float cell (a point's coordinates too, in a
    ``_point_field``), ``%d`` per integer and ``%s`` per text cell, quoted
    by ``_quoted`` where needed.  ``rows`` is a sequence of tuples.
    """
    with _artifact(path) as fh:
        fh.write((",".join(columns) + "\r\n").encode())
        fh.writelines((template % row).encode() for row in rows)


# floats a block of samples.csv and report.csv, whose pair walk limit_demo.csv
# shares: well under 1 MB of work
BLOCK = 4096


def _write_samples(path: Path, values: np.ndarray):
    """samples.csv, one (rep, point, value) line per draw, rep by rep;
    ``values`` holds a rep per row.  A block of lines holds whole reps,
    max(1, BLOCK // n_points) of them, as one (reps, points, width) line
    matrix: its point labels and line ends are written once, its rep
    labels are broadcast across it, and its values are formatted in place
    by one ``format_17g`` call."""
    values = np.asarray(values, dtype=float)
    n_reps, n_points = values.shape
    points = csvtext.labels(range(n_points), b",")
    step = max(1, BLOCK // n_points)
    # the widest rep label; the NULs that pad the others are deleted
    a = len(b"%d," % (n_reps - 1))
    b = a + points.itemsize
    lines = np.empty((min(step, n_reps), n_points, b + csvtext.CELL + 2),
                     np.uint8)
    lines[..., a:b] = points.view(np.uint8).reshape(n_points, -1)
    lines[..., -2:] = np.frombuffer(b"\r\n", np.uint8)
    with _artifact(path) as fh:
        fh.write(b"rep,point,value\r\n")
        for lo in range(0, n_reps, step):
            block = lines[:min(step, n_reps - lo)]
            reps = csvtext.labels(range(lo, lo + len(block)), b",")
            block[..., :a] = reps.astype(f"S{a}").view(np.uint8).reshape(
                len(block), 1, a)
            csvtext.format_17g(values[lo:lo + len(block)], out=block.reshape(
                -1, block.shape[-1])[:, b:b + csvtext.CELL])
            fh.write(block.tobytes().translate(None, b"\0"))


def _pair_blocks(n: int):
    """The pairs i <= j of n points, row by row (the order of
    ``np.triu_indices(n)``), as arrays (i, j, i n + j) of at most
    BLOCK // 4 pairs (report.csv has four floats a line), the last their
    flat index in an n x n matrix.  A block's pairs come from its line
    numbers, found among the row ends."""
    ends = np.cumsum(np.arange(n, 0, -1))   # the line after row i's pairs
    for start in range(0, n * (n + 1) // 2, BLOCK // 4):
        line = np.arange(start, min(start + BLOCK // 4, ends[-1]))
        i = np.searchsorted(ends, line, side="right")
        j = line - ends[i] + n
        yield i, j, i * n + j


def _write_report(path: Path, emp, se, cov):
    """report.csv, one line per pair i <= j of points, a block of pairs at
    a time; returns how many of its n_pairs z-scores lie within 4, and
    n_pairs."""
    n, within = len(cov), 0
    points = csvtext.labels(range(n))
    with _artifact(path) as fh:
        fh.write(b"probe,statistic,estimate,se,reference,z\r\n")
        for i, j, flat in _pair_blocks(n):
            est, sd, ref = emp.take(flat), se.take(flat), cov.take(flat)
            z = (est - ref) / sd
            within += int(np.count_nonzero(np.abs(z) <= 4.0))
            csvtext.write_lines(fh, [
                points[i], b"-", points[j], b",cov,", est, b",", sd, b",",
                ref, b",", z, b"\r\n"])
    return within, n * (n + 1) // 2


def run(config: RunConfig) -> int:
    """Execute a validated config; write CSV artifacts and echo the config."""
    need = {"simulate": "grid", "classify": "plan", "mc": "plan",
            "limit-demo": "t_points"}.get(config.command)
    if need and getattr(config, need) is None:   # a RunConfig built by hand
        raise ConfigError(f"{need}: missing; build the RunConfig with validate_config")
    out_dir = Path(config.params["out"])
    with _artifact(out_dir / "config_echo.json") as fh:
        fh.write((config.to_json() + "\n").encode())
    return _HANDLERS[config.command](config, out_dir)


def _run_cov(cfg, out_dir):
    """Evaluate a covariance kernel at (s, t)."""
    value = make_kernel(cfg.spec)(cfg.params["s"], cfg.params["t"])
    if not math.isfinite(value):   # main names s and t
        raise NonFiniteError(f"kernel returned non-finite value {value}")
    point = _point_field(len(cfg.spec.hurst))
    _write_csv(out_dir / "cov.csv",
               [(cfg.spec.family, *cfg.params["s"], *cfg.params["t"], value)],
               ["family", "s", "t", "value"], f"%s,{point},{point},%.17g\r\n")
    print(f"cov[{cfg.spec.family}] K(s,t) = {value:.17g}")
    return 0


def _run_density(cfg, out_dir):
    """Evaluate a spectral density."""
    values = spectral.g_product(cfg.spec.hurst, cfg.params["x"])
    rows = [(*x, v) for x, v in zip(cfg.params["x"], values.tolist())]
    _write_csv(out_dir / "density.csv", rows, ["x", "value"],
               _point_field(len(cfg.spec.hurst)) + ",%.17g\r\n")
    print(f"density[{cfg.spec.family}] wrote {len(rows)} values")
    return 0


# the suite that takes the config's ``tol``; the others have fixed tolerances
_TOL_SUITE = "lemmas"
_SUITES = {_TOL_SUITE: quadrature.identity_sweep, "densities":
           spectral.densities_suite, "criteria": spectral.criteria_suite,
           "ma": movingavg.ma_suite}


def _run_check(cfg, out_dir):
    """Run a verification suite."""
    suite = cfg.params["suite"]
    checks = _SUITES[suite]()
    if suite == _TOL_SUITE:
        checks = [(c, cfg.params["tol"]) for c in checks]
    params = [json.dumps(c.params, sort_keys=True) for c, _ in checks]
    passed = [c.passed(tol) for c, tol in checks]
    _write_csv(out_dir / f"check_{suite}.csv",
               [(c.identity, _quoted(text), c.numeric.real, c.numeric.imag,
                 c.closed.real, c.closed.imag, c.abs_error, tol,
                 "true" if ok else "false")
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
    kernel = make_kernel(cfg.spec)
    report = classify_stationarity(kernel, plan=cfg.plan)
    # the claimed class is exact by construction: a label that contradicts
    # it is reported as inconclusive, naming both
    found, claim = report.label, kernel.claimed_class
    label = found.value if found is claim else "inconclusive"
    _write_csv(out_dir / "classify.csv",
               [(cfg.spec.family, label, report.max_var_residual,
                 report.max_cross_residual)],
               ["family", "label", "max_var_residual", "max_cross_residual"],
               "%s,%s,%.17g,%.17g\r\n")
    point = _point_field(len(cfg.plan.shifts[0]))
    _write_csv(out_dir / "classify_probes.csv",
               [(r["kind"], *r["u1"], *r["u2"], *r["h"], r["value"],
                 r["reference"], r["residual"]) for r in report.rows],
               ["kind", "u1", "u2", "h", "value", "reference", "residual"],
               f"%s,{point},{point},{point},%.17g,%.17g,%.17g\r\n")
    note = ("" if found in (None, claim) else f": the residuals say "
            f"{found.value}, the spec claims {claim.value}")
    print(f"classify[{cfg.spec.family}] -> {label}{note} "
          f"(var {report.max_var_residual:.2e}, cross {report.max_cross_residual:.2e})")
    return 0 if found is claim else 1


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

    within, n_pairs = _write_report(out_dir / "report.csv", emp, se, batch.cov)
    print(f"simulate[{cfg.spec.family}] n={batch.n_samples} "
          f"{within}/{n_pairs} covariance entries within 4 SE")
    return 0 if within / n_pairs >= 0.95 else 1


def _run_mc(cfg, out_dir):
    """Monte Carlo increment-stationarity probes."""
    rows = mc_increment_stationarity(
        cfg.spec, plan=cfg.plan, seed=cfg.params["seed"],
        n_samples=cfg.params["n_samples"],
        n_workers=cfg.params["n_workers"])
    cols = ["probe", "kind", "h", "estimate", "se", "reference", "analytic",
            "z_reference", "z_analytic"]
    _write_csv(out_dir / "mc.csv",
               [(r["probe"], r["kind"], *r["h"], *(r[c] for c in cols[3:]))
                for r in rows],
               cols, "%d,%s," + _point_field(len(cfg.plan.shifts[0]))
               + ",%.17g" * 6 + "\r\n")
    bad = sum(abs(r["z_analytic"]) > 4.0 for r in rows)
    print(f"mc[{cfg.spec.family}] {len(rows) - bad}/{len(rows)} probes "
          f"within 4 SE of analytic increment covariance")
    return 0 if bad / max(len(rows), 1) <= 0.05 else 1


def _run_limit_demo(cfg, out_dir):
    """Partial-sum convergence demo."""
    demo = limit_partial_sums(cfg.params["r1"], cfg.params["r2"],
                              cfg.t_points, seed=cfg.params["seed"],
                              n_reps=cfg.params["n_reps"])
    t, n, ok = cfg.t_points, len(cfg.t_points), 0
    point = _point_field(t.shape[1])
    template = f"{point},{point},%.17g,%.17g,%.17g,%.17g,%s\r\n"
    with _artifact(out_dir / "limit_demo.csv") as fh:
        fh.write(b"t_i,t_j,estimate,se,exact_prelimit,limit,pass\r\n")
        for i, j, flat in _pair_blocks(n):
            est, se, exact, limit = (m.take(flat) for m in (
                demo.emp_cov, demo.se, demo.exact_cov, demo.limit_cov))
            passed = np.abs(est - limit) <= 0.05 * np.abs(limit) + 4.0 * se
            ok += int(np.count_nonzero(passed))
            cells = np.column_stack([t[i], t[j], est, se, exact, limit])
            fh.write("".join(template % (*row, flag) for row, flag in zip(
                cells.tolist(), np.where(passed, "true", "false").tolist()))
                     .encode())
    total = n * (n + 1) // 2
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


def _build_parser():
    """The parser of every command, with the flags of its config keys."""
    parser = argparse.ArgumentParser(
        prog="rectfield",
        description="Self-similar Gaussian random fields: kernels, spectral "
                    "densities, oracle checks, and exact simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS:
        keys = _COMMON_KEYS | _COMMAND_KEYS[command]
        if "spec" in keys:
            keys |= _SPEC_KEYS
        p = sub.add_parser(command, help=_HANDLERS[command].__doc__)
        p.add_argument("--config", type=Path, help="JSON config file")
        for key, opts in _FLAGS.items():
            if key in keys:
                p.add_argument(_flag(key), **opts)
    return parser


# built once, at import, so that no call of main pays for it
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:   # args.config is a Path; JSON text is UTF-8 (RFC 8259)
        text = "{}" if args.config is None else args.config.read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
