"""Config parsing, CSV emission, exit codes."""

import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rectfield import cli
from rectfield.cli import (
    ConfigError,
    _fmt,
    _write_samples,
    main,
    parse_config,
    run,
    spec_from_dict,
    spec_to_dict,
    validate_config,
)
from rectfield.kernels import FBS, MovingPair, StrictGeneral
from rectfield.simulate import limit_partial_sums


def test_parse_minimal_cov_config():
    cfg = parse_config('{"command":"cov","spec":{"family":"fbs",'
                       '"H":[0.5,0.5]},"s":[1,1],"t":[2,2]}')
    assert cfg.command == "cov"
    assert isinstance(cfg.spec, FBS)
    assert cfg.params["s"] == [1.0, 1.0]


def test_parse_error_cites_location():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config('{"command":')


def test_unknown_keys_fatal():
    with pytest.raises(ConfigError, match="strict mode"):
        validate_config({"command": "cov",
                         "spec": {"family": "fbs", "H": [0.5, 0.5]},
                         "s": [1, 1], "t": [2, 2], "thetaa": 1.0})


def test_unknown_spec_keys_fatal():
    with pytest.raises(ConfigError, match="unknown keys"):
        spec_from_dict({"family": "yhalf", "theta": 1.0, "gamma": 0.5})


def test_domain_error_message():
    with pytest.raises(ConfigError, match=r"lie in \(0,1\)"):
        spec_from_dict({"family": "fbs", "H": [1.2, 0.5]})


def test_seed_must_be_u64():
    with pytest.raises(ConfigError, match="64-bit"):
        validate_config({"command": "check", "suite": "criteria", "seed": -1})


def test_moving_pair_constraint_error():
    with pytest.raises(ConfigError, match="constraint"):
        spec_from_dict({"family": "movingpair", "H": [0.3, 0.7],
                        "d0": 1.0, "d1": 1.0})


def test_spec_roundtrip_all_families():
    dicts = [
        {"family": "fbs", "H": [0.3, 0.7]},
        {"family": "strict2d", "H": [0.3, 0.7], "gamma": 0.5},
        {"family": "strict", "H": [0.3, 0.7],
         "weights": {"++": 0.25, "+-": 0.25, "-+": 0.25, "--": 0.25}},
        {"family": "mildtheta", "H": [0.3, 0.7], "theta": -0.5},
        {"family": "yhalf", "theta": 1.0},
        {"family": "zhalf", "gamma": 0.8},
        {"family": "movingpair", "H": [0.3, 0.7], "d0": 1.0, "d1": 0.0},
    ]
    for d in dicts:
        spec = spec_from_dict(d)
        again = spec_from_dict(spec_to_dict(spec))
        assert again == spec


def test_config_echo_roundtrip(tmp_path):
    cfg = validate_config({
        "command": "cov",
        "spec": {"family": "strict", "H": [0.3, 0.7],
                 "weights": {"++": 0.4, "+-": 0.1, "-+": 0.1, "--": 0.4}},
        "s": [1, 1], "t": [2, 2], "out": str(tmp_path)})
    assert run(cfg) == 0
    echoed = parse_config((tmp_path / "config_echo.json").read_text())
    assert echoed == cfg
    assert isinstance(echoed.spec, StrictGeneral)


def test_run_cov_writes_csv(tmp_path):
    cfg = validate_config({
        "command": "cov", "spec": {"family": "yhalf", "theta": 1.0},
        "s": [1, 1], "t": [2, 2], "out": str(tmp_path)})
    assert run(cfg) == 0
    with open(tmp_path / "cov.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["family", "s", "t", "value"]
    assert float(rows[1][3]) == pytest.approx(17.0 / 16.0, rel=1e-16)
    # 17 significant digits round-trip exactly
    assert float(rows[1][3]) == 17.0 / 16.0


def test_run_density(tmp_path):
    cfg = validate_config({
        "command": "density", "spec": {"family": "fbs", "H": [0.5]},
        "x": [[0.0], [1.0]], "out": str(tmp_path)})
    assert run(cfg) == 0
    with open(tmp_path / "density.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3
    assert float(rows[1][1]) == pytest.approx(1 / (2 * math.pi * 0.25))


def test_run_check_criteria(tmp_path):
    cfg = validate_config({"command": "check", "suite": "criteria",
                           "out": str(tmp_path)})
    assert run(cfg) == 0
    with open(tmp_path / "check_criteria.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["pass"] == "true" for r in rows)


def test_run_classify(tmp_path):
    cfg = validate_config({
        "command": "classify", "spec": {"family": "yhalf", "theta": 1.0},
        "probes": {"n_pairs": 6, "n_shifts": 4}, "out": str(tmp_path)})
    assert run(cfg) == 0
    with open(tmp_path / "classify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["label"] == "mild_only"
    assert (tmp_path / "classify_probes.csv").exists()


def test_run_simulate_and_byte_identical_reruns(tmp_path):
    base = {
        "command": "simulate", "spec": {"family": "fbs", "H": [0.4, 0.6]},
        "grid": {"axes": [[0.5, 1.5], [1.0, 2.0]]},
        "n_samples": 400, "seed": 12}
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(validate_config({**base, "out": str(out1)})) == 0
    assert run(validate_config({**base, "out": str(out2),
                                "n_workers": 4})) == 0
    for name in ("grid.csv", "samples.csv", "report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    with open(out1 / "grid.csv") as fh:
        header = fh.readline().strip().split(",")
    assert header == ["index", "t1", "t2"]


def test_run_limit_demo(tmp_path):
    cfg = validate_config({
        "command": "limit-demo", "r1": 64, "r2": 64,
        "t_axes": [0.5, 1.0], "n_reps": 300, "seed": 13,
        "out": str(tmp_path)})
    assert run(cfg) == 0
    with open(tmp_path / "limit_demo.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10  # upper triangle of a 4x4 grid


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command":"cov","spec":{"family":"fbs","H":[1.2]},'
                   '"s":[1],"t":[1]}')
    assert main(["cov", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "lie in (0,1)" in err

    assert main(["cov", "--spec", "fbs", "--H", "0.5", "0.5",
                 "--s", "1", "1", "--t", "2", "2",
                 "--out", str(tmp_path / "ok")]) == 0

    missing = main(["cov", "--config", str(tmp_path / "nope.json")])
    assert missing == 2


def test_main_classify_flags(tmp_path):
    code = main(["classify", "--spec", "yhalf", "--theta", "1",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "classify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["label"] == "mild_only"


def test_mc_command(tmp_path):
    cfg = validate_config({
        "command": "mc", "spec": {"family": "fbs", "H": [0.5, 0.5]},
        "probes": {"n_pairs": 2, "n_shifts": 2}, "n_samples": 2000,
        "seed": 14, "out": str(tmp_path)})
    assert run(cfg) == 0
    with open(tmp_path / "mc.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"probe", "kind", "estimate", "se", "reference", "analytic",
            "z_reference", "z_analytic"} <= set(rows[0])


def _main_with_config(tmp_path, text, command):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return main([command, "--config", str(path), "--out", str(tmp_path)])


def test_density_rejects_non_sheet_families(tmp_path, capsys):
    # g_product(H) is the density of the sheet only; other families exit 2
    for spec in ({"family": "mildtheta", "H": [0.3, 0.7], "theta": 1.0},
                 {"family": "movingpair", "H": [0.3, 0.7], "d0": 1.0,
                  "d1": 0.0}):
        cfg = json.dumps({"command": "density", "spec": spec,
                          "x": [[0.5, 0.5]]})
        assert _main_with_config(tmp_path, cfg, "density") == 2
        assert spec["family"] in capsys.readouterr().err
    assert not (tmp_path / "density.csv").exists()


@pytest.mark.parametrize("text, command, where", [
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]},'
     ' "s": [1, 1], "t": [2, Infinity]}', "cov", "t:"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]},'
     ' "s": [NaN, 1], "t": [2, 2]}', "cov", "s:"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]}, "n_samples": 10,'
     ' "grid": {"axes": [[0.5, NaN], [1.0, 2.0]]}}', "simulate", "grid"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]}, "n_samples": 10,'
     ' "grid": {"points": [[0.5, Infinity]]}}', "simulate", "grid"),
    ('{"r1": 8, "r2": 8, "t_axes": [1.0, Infinity]}', "limit-demo", "t_axes"),
    ('{"suite": "ma", "seed": "abc"}', "check", "seed"),
    ('{"suite": "ma", "tol": [1]}', "check", "tol"),
    ('{"suite": "ma", "seed": 1.5}', "check", "seed"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]}, "n_samples": "many"}',
     "simulate", "n_samples"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]}, "n_workers": "two"}',
     "mc", "n_workers"),
    ('{"r1": "x", "r2": 8}', "limit-demo", "r1"),
    ('{"r1": 8, "r2": [8]}', "limit-demo", "r2"),
    ('{"r1": 8, "r2": 8, "n_reps": "lots"}', "limit-demo", "n_reps"),
    ('{"r1": 8, "r2": 8, "n_reps": 0}', "limit-demo", "n_reps"),
    ('{"spec": {"family": "strict", "H": [0.3, 0.7], "weights": {}}}',
     "classify", "weights"),
    ('{"spec": {"family": "strict", "H": [0.3, 0.7], "weights": [1]}}',
     "classify", "spec.weights"),
    ('{"suite": "criteria", "tol": 1e-300}', "check", "tol"),
    ('{"suite": "lemmas", "tol": -5}', "check", "tol"),
    ('{"suite": "lemmas", "tol": 0}', "check", "tol"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]},'
     ' "s": [1, 1], "t": [2, 2], "tol": -5}', "cov", "tol"),
    ('{"r1": 8, "r2": 8, "tol": 1e-3}', "limit-demo", "tol"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]},'
     ' "s": [1, 1], "t": [2, 2], "n_samples": 10}', "cov", "n_samples"),
    ('{"spec": {"family": "fbs", "H": [0.5]}, "x": [[0.5]], "n_samples": 10}',
     "density", "n_samples"),
    ('{"suite": "ma", "n_samples": 10}', "check", "n_samples"),
    ('{"spec": {"family": "yhalf", "theta": 1.0}, "n_samples": 10}',
     "classify", "n_samples"),
    ('{"r1": 8, "r2": 8, "n_samples": 10}', "limit-demo", "n_samples"),
    ('{"spec": {"family": "yhalf", "theta": 1.0},'
     ' "probes": {"n_pairs": 2, "n_shifts": 2, "shift_box": 0}}',
     "classify", "probes.shift_box"),
    ('{"spec": {"family": "yhalf", "theta": 1.0},'
     ' "probes": {"n_pairs": 2, "n_shifts": 2, "shift_box": 0}}',
     "mc", "probes.shift_box"),
    ('{"spec": {"family": "yhalf", "theta": 1.0}, "probes": {"shift_box": -1}}',
     "classify", "probes.shift_box"),
    ('{"spec": {"family": "yhalf", "theta": 1.0}, "probes": {"box": 0.01}}',
     "classify", "probes.box"),
    ('{"spec": {"family": "yhalf", "theta": 1.0}, "probes": {"box": 0.05}}',
     "classify", "probes.box"),
    ('{"spec": {"family": "yhalf", "theta": 1.0}, "probes": {"box": -1}}',
     "mc", "probes.box"),
])
def test_bad_input_is_a_config_error(tmp_path, capsys, text, command, where):
    assert _main_with_config(tmp_path, text, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and where in err
    assert "Traceback" not in err


def test_n_samples_floor_makes_the_gates_meaningful(tmp_path, capsys):
    # with 2 samples the 4-SE mc gate passed all 24 probes of a mild field
    flags = ["--spec", "mildtheta", "--H", "0.3", "0.7", "--theta", "1",
             "--out", str(tmp_path)]
    assert main(["mc", *flags, "--n-samples", "2"]) == 2
    assert "n_samples" in capsys.readouterr().err
    assert not (tmp_path / "mc.csv").exists()
    for command in ("simulate", "mc"):
        spec = {"family": "fbs", "H": [0.5, 0.5]}
        with pytest.raises(ConfigError, match="n_samples"):
            validate_config({"command": command, "spec": spec,
                             "n_samples": 99})
        cfg = validate_config({"command": command, "spec": spec,
                               "n_samples": 100})
        assert cfg.params["n_samples"] == 100


def test_n_workers_is_bounded(capsys):
    from rectfield.simulate import MAX_WORKERS

    spec = {"family": "fbs", "H": [0.5, 0.5]}
    for command in ("simulate", "mc"):
        cfg = validate_config({"command": command, "spec": spec,
                               "n_workers": MAX_WORKERS})
        assert cfg.params["n_workers"] == MAX_WORKERS
        with pytest.raises(ConfigError, match="n_workers"):
            validate_config({"command": command, "spec": spec,
                             "n_workers": MAX_WORKERS + 1})
    # validation fails before any work, so no thread is started
    assert main(["simulate", "--spec", "fbs", "--H", "0.5", "0.5",
                 "--n-workers", "1000000"]) == 2
    assert "n_workers" in capsys.readouterr().err


def test_a_covariance_that_is_not_psd_is_a_config_error(tmp_path, capsys):
    # theta outside [-1, 1] only warns; on these points the mild covariance
    # has a negative eigenvalue, which used to end in a PSDError traceback
    text = json.dumps({"spec": {"family": "mildtheta", "H": [0.3, 0.7],
                                "theta": 8}, "n_samples": 100})
    for command in ("simulate", "mc"):
        with pytest.warns(UserWarning, match="semidefinite"):
            assert _main_with_config(tmp_path, text, command) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: spec:")
        assert "not positive semidefinite on this grid" in err
        assert "Traceback" not in err


_CEILINGS = [
    ("simulate", "n_samples", cli.MAX_N_SAMPLES),
    ("mc", "n_samples", cli.MAX_N_SAMPLES),
    ("limit-demo", "n_reps", cli.MAX_N_REPS),
    ("classify", "probes.n_pairs", cli.MAX_PROBE_PAIRS),
    ("mc", "probes.n_shifts", cli.MAX_PROBE_SHIFTS),
]


@pytest.mark.parametrize("command, key, ceiling", _CEILINGS,
                         ids=[f"{c}-{k}" for c, k, _ in _CEILINGS])
def test_config_work_is_bounded(command, key, ceiling):
    def config(value):
        cfg = ({"command": command, "r1": 8, "r2": 8} if command == "limit-demo"
               else {"command": command, "spec": {"family": "fbs",
                                                  "H": [0.5, 0.5]}})
        if command == "simulate":   # one point, inside the draws' budget
            cfg["grid"] = {"points": [[1.0, 1.0]]}
        if key.startswith("probes."):
            cfg["probes"] = {key.split(".")[1]: value}
        else:
            cfg[key] = value
        return cfg

    validate_config(config(ceiling))
    with pytest.raises(ConfigError, match=re.escape(key)):
        validate_config(config(ceiling + 1))


def test_oversized_grids_and_plans_fail_before_they_are_built(monkeypatch):
    def not_built(*args, **kwargs):
        raise AssertionError("built before the ceiling was checked")

    monkeypatch.setattr(cli, "_make_grid", not_built)
    monkeypatch.setattr(cli, "ProbePlan", not_built)
    spec = {"family": "fbs", "H": [0.5, 0.5]}
    axis = np.linspace(0.1, 3.0, 65).tolist()    # 65^2 = 4225 points
    assert 65 ** 2 > cli.MAX_GRID_POINTS
    cases = [
        ({"command": "simulate", "spec": spec, "grid": {"axes": [axis, axis]}},
         "grid"),
        ({"command": "simulate", "spec": spec,
          "grid": {"points": [[x, 1.0] for x in axis * 65]}}, "grid"),
        ({"command": "classify", "spec": spec,
          "probes": {"n_pairs": cli.MAX_PROBE_PAIRS + 1}}, "probes.n_pairs"),
        ({"command": "mc", "spec": spec,
          "probes": {"n_shifts": cli.MAX_PROBE_SHIFTS + 1}}, "probes.n_shifts"),
        ({"command": "limit-demo", "r1": 8, "r2": 8, "t_axes": axis}, "t_axes"),
        ({"command": "limit-demo", "r1": 8, "r2": 8,
          "t_points": [[x, 1.0] for x in axis * 65]}, "t_points"),
    ]
    for cfg, key in cases:
        with pytest.raises(ConfigError, match=re.escape(key)):
            validate_config(cfg)


def test_mc_bounds_its_draws(tmp_path, capsys, monkeypatch):
    # n_samples rows for each probe pair and shift of the plan mc will use;
    # at the pair and shift ceilings, 2000 samples reach MAX_MC_DRAWS
    cfg = {"command": "mc", "spec": {"family": "fbs", "H": [0.5, 0.5]},
           "probes": {"n_pairs": cli.MAX_PROBE_PAIRS,
                      "n_shifts": cli.MAX_PROBE_SHIFTS}}
    n = cli.MAX_MC_DRAWS // (cli.MAX_PROBE_PAIRS * cli.MAX_PROBE_SHIFTS)
    assert n * cli.MAX_PROBE_PAIRS * cli.MAX_PROBE_SHIFTS == cli.MAX_MC_DRAWS
    validate_config({**cfg, "n_samples": n})
    with pytest.raises(ConfigError, match="n_samples"):
        validate_config({**cfg, "n_samples": n + 1})

    def not_drawn(*args, **kwargs):
        raise AssertionError("drew before the ceiling was checked")

    monkeypatch.setattr(cli, "mc_increment_stationarity", not_drawn)
    text = json.dumps({**cfg, "n_samples": n + 1})
    assert _main_with_config(tmp_path, text, "mc") == 2
    assert capsys.readouterr().err.startswith("config error: n_samples:")
    # the default plan at the n_samples ceiling is the bound itself
    validate_config({**cfg, "probes": {"n_pairs": 20, "n_shifts": 10},
                     "n_samples": cli.MAX_N_SAMPLES})


def test_simulate_bounds_its_draws():
    # n_samples times the grid's points, the size of the sample matrix
    spec = {"family": "fbs", "H": [0.5, 0.5]}
    axis = np.linspace(0.5, 4.0, 8).tolist()
    grid = {"axes": [axis, axis]}
    n = cli.MAX_SAMPLE_VALUES // 64
    validate_config({"command": "simulate", "spec": spec, "grid": grid,
                     "n_samples": n})
    with pytest.raises(ConfigError, match="n_samples"):
        validate_config({"command": "simulate", "spec": spec, "grid": grid,
                         "n_samples": n + 1})


def test_defaults_and_benchmark_configs_are_inside_the_ceilings():
    import importlib.util
    from pathlib import Path

    for command in ("simulate", "mc", "classify", "limit-demo"):
        cfg = {"command": command}
        if command == "limit-demo":
            cfg.update(r1=512, r2=512)
        else:
            cfg["spec"] = {"family": "fbs", "H": [0.3, 0.6, 0.8]}
        validate_config(cfg)
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for _, cfg in workloads.build(name, seed, "full"):
                validate_config(cfg)


def test_only_the_lemmas_suite_takes_a_tolerance(tmp_path):
    cfg = validate_config({"command": "check", "suite": "lemmas",
                           "tol": 1e-300, "out": str(tmp_path)})
    assert cfg.params["tol"] == 1e-300
    assert run(cfg) == 1   # the tolerance is honoured, so the sweep fails
    assert "tol" not in validate_config({"command": "check",
                                         "suite": "ma"}).params


def _count_calls(monkeypatch, real):
    """Calls of ``real`` through every rectfield reference to it."""
    import sys

    calls = []
    for mod in [m for n, m in sys.modules.items() if n.startswith("rectfield")]:
        for name, value in list(vars(mod).items()):
            if value is real:   # every reference, as a tracer would count
                monkeypatch.setattr(
                    mod, name,
                    lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_simulate_builds_the_covariance_matrix_once(tmp_path, monkeypatch):
    import rectfield.simulate as sim

    calls = _count_calls(monkeypatch, sim.cov_matrix)
    cfg = {"command": "simulate",
           "spec": {"family": "strict2d", "H": [0.3, 0.7], "gamma": 0.5},
           "grid": {"axes": [[0.5, 1.5], [1.0, 2.0]]}, "n_samples": 300,
           "seed": 15, "out": str(tmp_path)}
    assert run(validate_config(cfg)) == 0
    assert len(calls) == 1
    # the samples are the draws of sample_field for the same seed, bit for bit
    batch = sim.sample_field(spec_from_dict(cfg["spec"]),
                             sim.grid_from_axes(cfg["grid"]["axes"]), 15, 300)
    with open(tmp_path / "samples.csv") as fh:
        values = [float(r["value"]) for r in csv.DictReader(fh)]
    assert values == batch.values.ravel().tolist()


def test_mc_samples_once_per_pair_and_shift(tmp_path, monkeypatch):
    import rectfield.simulate as sim

    calls = _count_calls(monkeypatch, sim.cholesky_sample)
    cfg = {"command": "mc",
           "spec": {"family": "fbs", "H": [0.3, 0.6, 0.8]},
           "probes": {"n_pairs": 3, "n_shifts": 2}, "n_samples": 200,
           "seed": 16, "out": str(tmp_path)}
    assert run(validate_config(cfg)) == 0
    assert len(calls) == 3 * 2


def test_limit_demo_t_axes_are_bounded_by_the_floor_index(tmp_path, capsys):
    # far t values cost no lattice; only floor(t r) past 2^31 is refused
    cfg = {"r1": 512, "r2": 512, "t_axes": [1.0, 10.0], "n_reps": 200}
    assert _main_with_config(tmp_path, json.dumps(cfg), "limit-demo") == 0
    assert "10/10 entries" in capsys.readouterr().out
    cfg["t_axes"] = [1.0, 1e7]
    assert _main_with_config(tmp_path, json.dumps(cfg), "limit-demo") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_axes") and "Traceback" not in err


def _samples_csv_per_row(path, values):
    """The per-row writer samples.csv had: a dict per draw, ``_fmt`` per value."""
    rows = [{"rep": r, "point": p, "value": values[r, p]}
            for r in range(values.shape[0]) for p in range(values.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "point", "value"])
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in ("rep", "point", "value")])


def test_samples_csv_matches_the_per_row_writer(tmp_path):
    import rectfield.simulate as sim

    cfg = {"command": "simulate",
           "spec": {"family": "fbs", "H": [0.3, 0.7]},
           "grid": {"axes": [[0.5, 1.5, 2.0], [1.0, 2.0]]}, "n_samples": 120,
           "seed": 16, "out": str(tmp_path / "run")}
    assert run(validate_config(cfg)) == 0
    batch = sim.sample_field(spec_from_dict(cfg["spec"]),
                             sim.grid_from_axes(cfg["grid"]["axes"]), 16, 120)
    _samples_csv_per_row(tmp_path / "oracle.csv", batch.values)
    assert (tmp_path / "run" / "samples.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()
    # values whose shortest and 17-digit forms differ, signed zeros, extremes
    edge = np.array([[0.1, -0.0, 1.0, -1e-300], [5e-324, 1.7976931348623157e308,
                                                 -2.5, 1 / 3]])
    _write_samples(tmp_path / "edge.csv", edge)
    _samples_csv_per_row(tmp_path / "edge_oracle.csv", edge)
    assert (tmp_path / "edge.csv").read_bytes() == \
        (tmp_path / "edge_oracle.csv").read_bytes()


def _reemitted(path):
    """The bytes the pre-template writer (``csv.writer``, ``_fmt`` per cell)
    gives for the table at ``path`` once its numeric cells are read back.

    A 17-significant-digit float reads back to the same double, so any drift
    in digits, quoting or line ends makes the two differ."""
    def cell(text):
        if text.startswith("[") and text.endswith("]"):
            return [float(v) for v in text[1:-1].split()]
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell(c)) for c in row])
    return buf.getvalue().encode()


_FBS = {"family": "fbs", "H": [0.3, 0.7]}
_ARTIFACT_RUNS = [
    pytest.param({"command": "cov", "spec": {"family": "strict2d",
                                             "H": [0.3, 0.7], "gamma": 0.4},
                  "s": [1.0, 2.0], "t": [0.5, 3.0]}, ["cov.csv"], id="cov"),
    pytest.param({"command": "density", "spec": _FBS,
                  "x": [[0.0, 0.0], [0.1, -2.5], [1e-3, 7.0]]},
                 ["density.csv"], id="density"),
    pytest.param({"command": "check", "suite": "lemmas"},
                 ["check_lemmas.csv"], id="check-lemmas"),
    pytest.param({"command": "check", "suite": "lemmas", "tol": 1e-300},
                 ["check_lemmas.csv"], id="check-lemmas-all-fail"),
    pytest.param({"command": "check", "suite": "densities"},
                 ["check_densities.csv"], id="check-densities"),
    pytest.param({"command": "check", "suite": "criteria"},
                 ["check_criteria.csv"], id="check-criteria"),
    pytest.param({"command": "check", "suite": "ma"}, ["check_ma.csv"],
                 id="check-ma"),
    pytest.param({"command": "classify",
                  "spec": {"family": "mildtheta", "H": [0.3, 0.7],
                           "theta": 0.8},
                  "probes": {"n_pairs": 2, "n_shifts": 2, "seed": 4}},
                 ["classify.csv", "classify_probes.csv"], id="classify"),
    pytest.param({"command": "simulate",
                  "spec": {"family": "fbs", "H": [0.3, 0.7, 0.5]},
                  "grid": {"points": [[0.5, 1.0, 2.0], [0.3, 1.1, 2.5],
                                      [1, 1, 1]]},
                  "n_samples": 300, "seed": 10},
                 ["grid.csv", "samples.csv", "report.csv"], id="simulate"),
    pytest.param({"command": "mc", "spec": {"family": "yhalf", "theta": 0.7},
                  "probes": {"n_pairs": 1, "n_shifts": 2, "seed": 3},
                  "n_samples": 200, "seed": 5}, ["mc.csv"], id="mc"),
    pytest.param({"command": "limit-demo", "r1": 3, "r2": 2,
                  "t_points": [[0.1, 0.2], [1.0, 2.0], [0.0, 1.5]],
                  "n_reps": 50, "seed": 4},   # biased: some entries fail
                 ["limit_demo.csv"], id="limit-demo"),
]


@pytest.mark.parametrize("cfg, files", _ARTIFACT_RUNS)
def test_every_artifact_matches_the_csv_writer(tmp_path, cfg, files):
    run(validate_config(dict(cfg, out=str(tmp_path))))
    for name in files:
        data = (tmp_path / name).read_bytes()
        assert data.count(b"\n") > 1 and data.endswith(b"\r\n")
        assert data == _reemitted(tmp_path / name), name


@pytest.mark.parametrize("r, t", [
    (0, [[1.0, 1.0]]),
    (513, [[1.0, 1.0]]),
    (8, [[1.0, 1.0], [-0.5, 1.0]]),
    (8, [[1.0, 1.0, 1.0]]),
    (512, [[1.0, 2.0**31 / 512]]),
], ids=["r = 0", "r = 513", "negative t", "3-D t", "floor(t r) = 2^31"])
def test_limit_demo_arguments_have_one_check(r, t):
    # limit_partial_sums and the config reject the same cases, in the same
    # words; the config names the key
    with pytest.raises(ValueError) as api:
        limit_partial_sums(r, r, t, n_reps=2)
    with pytest.raises(ConfigError) as config:
        validate_config({"command": "limit-demo", "r1": r, "r2": r,
                         "t_points": t})
    assert str(config.value) == f"t_points: {api.value}"


def test_mc_plan_keeps_its_size_when_probes_set_other_keys(tmp_path):
    # keys other than n_pairs and n_shifts leave mc's 4 x 3 plan size alone
    spec = {"family": "fbs", "H": [0.3, 0.7]}
    for i, probes in enumerate(({}, {"seed": 5}, {"box": 1.5})):
        out = tmp_path / str(i)
        assert run(validate_config({"command": "mc", "spec": spec,
                                    "probes": probes, "n_samples": 100,
                                    "out": str(out)})) in (0, 1)
        with open(out / "mc.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 24   # 4 x 3, var and cross


_README = Path(__file__).resolve().parents[1] / "README.md"
_README_RUNS = [
    ("cov --spec fbs --H 0.5 0.5 --s 1 1 --t 2 2",
     {"command": "cov", "spec": {"family": "fbs", "H": [0.5, 0.5]},
      "s": [1, 1], "t": [2, 2]}),
    ("check --suite lemmas", {"command": "check", "suite": "lemmas"}),
    ("classify --spec yhalf --theta 1",
     {"command": "classify", "spec": {"family": "yhalf", "theta": 1}}),
    ("simulate --spec zhalf --gamma 1 --n-samples 5000 --seed 7",
     {"command": "simulate", "spec": {"family": "zhalf", "gamma": 1},
      "n_samples": 5000, "seed": 7}),
    ("mc --spec yhalf --theta 1 --n-samples 20000",
     {"command": "mc", "spec": {"family": "yhalf", "theta": 1},
      "n_samples": 20000}),
    ("limit-demo --r1 256 --r2 256 --n-reps 2000",
     {"command": "limit-demo", "r1": 256, "r2": 256, "n_reps": 2000}),
]


@pytest.mark.parametrize("line, cfg", _README_RUNS,
                         ids=[cfg["command"] for _, cfg in _README_RUNS])
def test_readme_command_lines_echo_their_json_configs(tmp_path, monkeypatch,
                                                      line, cfg):
    assert f"rectfield {line} --out out/" in _README.read_text()
    # only the echo is compared: the commands themselves do no work here
    monkeypatch.setattr(cli, "_HANDLERS",
                        dict.fromkeys(cli._HANDLERS, lambda cfg, out: 0))
    assert main([*line.split(), "--out", str(tmp_path)]) == 0
    from_flags = (tmp_path / "config_echo.json").read_text()
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main([cfg["command"], "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "config_echo.json").read_text() == from_flags
