"""Config parsing, CSV emission, exit codes."""

import argparse
import contextlib
import csv
import importlib
import io
import itertools
import json
import math
import re
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracle
from rectfield import cli
from rectfield.cli import (
    ConfigError,
    RunConfig,
    _write_samples,
    main,
    parse_config,
    run,
    spec_from_dict,
    spec_to_dict,
    validate_config,
)
from rectfield.increments import ProbePlan
from rectfield.kernels import (FBS, MildTheta, MovingPair, Strict2D,
                               StrictGeneral, YHalf, ZHalf)
from rectfield.simulate import _limit_indices, limit_partial_sums


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


def test_classify_label_that_contradicts_the_claim_is_inconclusive(
        tmp_path, capsys):
    # a mild correction of 1e-12 leaves cross residuals far below the
    # invariance threshold, so the residuals read strict_wide: the spec
    # claims mild_only, so the run reports both and exits 1 instead of
    # printing `-> strict_wide` with exit 0
    cfg = validate_config({
        "command": "classify",
        "spec": {"family": "mildtheta", "H": [0.3, 0.7], "theta": 1e-12},
        "out": str(tmp_path)})
    assert run(cfg) == 1
    with open(tmp_path / "classify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["label"] == "inconclusive"
    out = capsys.readouterr().out
    assert ("-> inconclusive: the residuals say strict_wide, the spec claims "
            "mild_only") in out


@pytest.mark.parametrize("spec, label", [
    ({"family": "fbs", "H": [0.3, 0.7]}, "strict_wide"),
    ({"family": "strict", "H": [0.3, 0.6, 0.8], "weights": {
        "+++": 0.2, "---": 0.2, "+-+": 0.1, "-+-": 0.1, "++-": 0.05,
        "--+": 0.05, "-++": 0.15, "+--": 0.15}}, "strict_wide"),
    ({"family": "strict2d", "H": [0.3, 0.7], "gamma": 0.6}, "strict_wide"),
    ({"family": "strict2d", "H": [0.5, 0.52], "gamma": -0.4}, "strict_wide"),
    ({"family": "mildtheta", "H": [0.3, 0.7], "theta": 0.8}, "mild_only"),
])
def test_classify_labels_far_shifts_from_the_lags(tmp_path, capsys, spec,
                                                  label):
    # at shift_box 1e6 the corner sum of fBs at (0.3, 0.7) cancelled to a
    # `none` label (var 8.05e-3); the lag forms keep the boxes' own scale
    cfg = validate_config({"command": "classify", "spec": spec,
                           "probes": {"shift_box": 1e6},
                           "out": str(tmp_path)})
    assert run(cfg) == 0
    assert f"-> {label} (" in capsys.readouterr().out


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
    out = [] if '"out"' in text else ["--out", str(tmp_path)]   # --out wins
    return main([command, "--config", str(path), *out])


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
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]},'
     ' "s": [[1, 1], [2, 2]], "t": [2, 2]}', "cov", "s:"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]}, "n_samples": 100,'
     ' "grid": {"points": [[[1, 2], [3, 4]]]}}', "simulate", "grid:"),
    ('{"r1": 8, "r2": 8, "t_axes": []}', "limit-demo", "t_axes:"),
    ('{"r1": 8, "r2": 8, "t_axes": [[1, 2], [3, 4]]}', "limit-demo", "t_axes:"),
    ('{"spec": {"family": "fbs", "H": [0.3, 0.7]},'
     ' "probes": {"box": 1.7e308, "shift_box": 1.7e308}}',
     "classify", "probes.box + shift_box"),
    # covariances that overflow: a NaN verdict, a traceback and an inf value
    ('{"spec": {"family": "mildtheta", "H": [0.3, 0.7], "theta": 0.5},'
     ' "probes": {"n_pairs": 1, "n_shifts": 1, "shift_box": 1e300}}',
     "classify", "probes: the covariance is not finite"),
    ('{"spec": {"family": "fbs", "H": [0.3, 0.7]},'
     ' "probes": {"n_pairs": 1, "n_shifts": 1, "shift_box": 1e300}}',
     "mc", "probes: the covariance is not finite"),
    ('{"spec": {"family": "fbs", "H": [0.9, 0.9]},'
     ' "s": [1e300, 1e300], "t": [1e300, 1e300]}',
     "cov", "s, t: the covariance is not finite"),
    # a family or suite that is not a string was a TypeError traceback
    ('{"spec": {"family": ["fbs"], "H": [0.5, 0.5]},'
     ' "s": [1, 1], "t": [2, 2]}', "cov", "spec.family"),
    ('{"spec": {"family": {"fbs": 1}, "H": [0.5, 0.5]},'
     ' "s": [1, 1], "t": [2, 2]}', "cov", "spec.family"),
    ('{"suite": ["ma"]}', "check", "suite"),
    ('{"suite": {"ma": 1}}', "check", "suite"),
    # out was any JSON value's str(): ./None, or a directory "{'a': 1}"
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]},'
     ' "s": [1, 1], "t": [2, 2], "out": null}', "cov", "out:"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]},'
     ' "s": [1, 1], "t": [2, 2], "out": {"a": 1}}', "cov", "out:"),
    # a string, boolean or null where a number goes was read as a number
    ('{"spec": {"family": "zhalf", "gamma": false},'
     ' "s": [1, 1], "t": [2, 2]}', "cov", "spec.gamma"),
    ('{"spec": {"family": "yhalf", "theta": "0.5"},'
     ' "s": [1, 1], "t": [2, 2]}', "cov", "spec.theta"),
    ('{"spec": {"family": "yhalf", "theta": null},'
     ' "s": [1, 1], "t": [2, 2]}', "cov", "spec.theta"),
    ('{"spec": {"family": "fbs", "H": ["0.3", 0.7]},'
     ' "s": [1, 1], "t": [2, 2]}', "cov", "spec.H"),
    ('{"spec": {"family": "strict", "H": [0.3, 0.7], "weights":'
     ' {"++": "0.25", "--": 0.25, "+-": 0.25, "-+": 0.25}},'
     ' "s": [1, 1], "t": [2, 2]}', "cov", "spec.weights"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]},'
     ' "s": [true, 1], "t": [2, 2]}', "cov", "s:"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]}, "x": [["1", 2]]}',
     "density", "x:"),
    ('{"r1": 8, "r2": 8, "t_axes": "1"}', "limit-demo", "t_axes"),
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]}, "n_samples": 100,'
     ' "grid": {"axes": "12"}}', "simulate", "grid.axes"),
    # a nested axis was flattened into the mesh and echoed nested
    ('{"spec": {"family": "fbs", "H": [0.5, 0.5]}, "n_samples": 100,'
     ' "grid": {"axes": [[[0.5, 1.0]], [1.0, 2.0]]}}', "simulate", "grid.axes"),
])
def test_bad_input_is_a_config_error(tmp_path, capsys, text, command, where):
    assert _main_with_config(tmp_path, text, command) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and where in err
    assert "Traceback" not in err


def test_a_bare_number_is_a_one_point_axis():
    cfg = validate_config({"command": "simulate",
                           "spec": {"family": "fbs", "H": [0.5, 0.5]},
                           "grid": {"axes": [0.5, [1.0, 2.0]]}})
    assert cfg.grid.points.tolist() == [[0.5, 1.0], [0.5, 2.0]]
    assert cfg.params["grid"] == {"axes": [0.5, [1.0, 2.0]]}


def test_a_config_file_is_utf8_json(tmp_path, capsys):
    # a file that is not UTF-8 text was a UnicodeDecodeError traceback; a
    # UTF-8 file with a non-ASCII out still runs
    text = ('{"command": "cov", "spec": {"family": "fbs", "H": [0.5, 0.5]},'
            ' "s": [1, 1], "t": [2, 2], "out": "%s"}')
    path = tmp_path / "cfg.json"
    path.write_bytes((text % (tmp_path / "\xff")).encode("latin-1"))
    assert main(["cov", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {path}: ")
    assert "Traceback" not in err
    path.write_bytes((text % (tmp_path / "caf\xe9 \u03b8")).encode())
    assert main(["cov", "--config", str(path)]) == 0
    assert (tmp_path / "caf\xe9 \u03b8" / "cov.csv").is_file()


def test_an_unusable_out_is_a_config_error(tmp_path, capsys):
    # FileExistsError, NotADirectoryError and an IsADirectoryError on an
    # artifact used to end in a traceback
    (tmp_path / "file").write_text("")
    (tmp_path / "dir" / "cov.csv").mkdir(parents=True)
    flags = ["--spec", "fbs", "--H", "0.5", "0.5", "--s", "1", "1",
             "--t", "2", "2"]
    for out in (tmp_path / "file", tmp_path / "file" / "sub", tmp_path / "dir"):
        assert main(["cov", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and str(out) in err
    # samples.csv and report.csv are written as bytes, by another writer
    flags = ["--spec", "fbs", "--H", "0.5", "0.5", "--n-samples", "100"]
    for name in ("samples.csv", "report.csv"):
        (tmp_path / name / name).mkdir(parents=True)
        assert main(["simulate", *flags, "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out: ") and name in err


def test_only_artifact_writes_map_an_os_error_to_out(tmp_path, monkeypatch):
    # an OSError raised by the computation is not a fault of out
    def broken(*args, **kwargs):
        raise OSError("not a file error")

    monkeypatch.setattr(cli, "make_kernel", broken)
    cfg = validate_config({"command": "cov", "out": str(tmp_path),
                           "spec": {"family": "fbs", "H": [0.5, 0.5]},
                           "s": [1, 1], "t": [2, 2]})
    with pytest.raises(OSError, match="not a file error"):
        run(cfg)
    assert (tmp_path / "config_echo.json").exists()


def test_a_hand_built_run_config_needs_its_built_input(tmp_path):
    # without its grid, plan or t points a run used to fall back to the
    # default plan while echoing the given probes, or end in a traceback
    spec = FBS((0.3, 0.7))
    for command, params in (
            ("classify", {"probes": {"n_pairs": 1}}),
            ("mc", {"probes": {"n_pairs": 1}, "n_samples": 100,
                    "n_workers": 1}),
            ("simulate", {"grid": {"points": [[1.0, 1.0]]}, "n_samples": 100,
                          "n_workers": 1}),
            ("limit-demo", {"r1": 2, "r2": 2, "t_points": [[1.0, 1.0]],
                            "n_reps": 10})):
        cfg = RunConfig(command, None if command == "limit-demo" else spec,
                        {"seed": 0, "out": str(tmp_path / command), **params})
        with pytest.raises(ConfigError, match="validate_config"):
            run(cfg)
        assert not (tmp_path / command).exists()


def test_a_bare_number_is_a_one_dimensional_point(tmp_path):
    cfg = validate_config({"command": "cov", "spec": {"family": "fbs",
                                                      "H": [0.3]},
                           "s": 1, "t": [2.0]})
    assert (cfg.params["s"], cfg.params["t"]) == ([1.0], [2.0])
    cfg = validate_config({"command": "density",
                           "spec": {"family": "fbs", "H": [0.3]}, "x": 0.5,
                           "out": str(tmp_path)})
    assert cfg.params["x"] == [[0.5]]
    assert run(cfg) == 0


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


def test_cov_warns_once_for_a_theta_outside_the_safe_range(tmp_path, capsys):
    # the warning comes from building the spec; YHalf's kernel is built
    # from the MildTheta made then, so evaluating it warns no more
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        assert main(["cov", "--spec", "yhalf", "--theta", "1.5", "--s", "1",
                     "1", "--t", "2", "1.5", "--out", str(tmp_path)]) == 0
    assert len(rec) == 1, [str(w.message) for w in rec]
    assert "theta=1.5 outside [-1,1]" in str(rec[0].message)
    assert Path(rec[0].filename).name == "cli.py"
    assert "cov[yhalf] K(s,t) = " in capsys.readouterr().out


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

    for builder in ("Grid", "grid_from_axes", "ProbePlan"):
        monkeypatch.setattr(cli, builder, not_built)
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


@pytest.mark.parametrize("name, suite", [
    ("densities", "rectfield.spectral.densities_suite"),
    ("criteria", "rectfield.spectral.criteria_suite"),
    ("ma", "rectfield.movingavg.ma_suite"),
])
def test_suite_in_its_module_returns_the_rows_check_writes(tmp_path, name,
                                                           suite):
    module, _, function = suite.rpartition(".")
    rows = getattr(importlib.import_module(module), function)()
    assert main(["check", "--suite", name, "--out", str(tmp_path)]) == 0
    with open(tmp_path / f"check_{name}.csv", newline="") as fh:
        written = list(csv.DictReader(fh))
    assert [(r["identity"], json.loads(r["params"]),
             complex(float(r["numeric_re"]), float(r["numeric_im"])),
             complex(float(r["closed_re"]), float(r["closed_im"])),
             float(r["tol"]), r["pass"]) for r in written] == [
        (c.identity, c.params, complex(c.numeric), complex(c.closed), tol,
         "true" if c.passed(tol) else "false") for c, tol in rows]


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


def test_each_run_input_is_built_once(tmp_path, monkeypatch):
    import rectfield.simulate as sim
    from rectfield.increments import ProbePlan

    plans = []
    default = ProbePlan.default.__func__
    monkeypatch.setattr(ProbePlan, "default", classmethod(
        lambda cls, *a, **k: plans.append(1) or default(cls, *a, **k)))
    spec = {"family": "fbs", "H": [0.3, 0.7]}
    for command, extra in (("classify", {}), ("mc", {"n_samples": 100})):
        plans.clear()
        assert run(validate_config({
            "command": command, "spec": spec, **extra,
            "probes": {"n_pairs": 2, "n_shifts": 2},
            "out": str(tmp_path / command)})) in (0, 1)
        assert len(plans) == 1, command

    grids = []
    post_init = sim.Grid.__post_init__
    monkeypatch.setattr(sim.Grid, "__post_init__",
                        lambda self: grids.append(1) or post_init(self))
    for grid in ({"axes": [[0.5, 1.5], [1.0, 2.0]]},
                 {"points": [[0.5, 1.0], [1.5, 2.0]]}):
        grids.clear()
        assert run(validate_config({
            "command": "simulate", "spec": spec, "grid": grid,
            "n_samples": 100, "out": str(tmp_path / "sim")})) in (0, 1)
        assert len(grids) == 1, grid

    # the check of the demo's arguments sees the points it samples, the
    # t_axes mesh, not its diagonal
    seen = []
    monkeypatch.setattr(sim, "_limit_indices",
                        lambda *a: seen.append(a[2]) or _limit_indices(*a))
    monkeypatch.setattr(cli, "_limit_indices", sim._limit_indices)
    cfg = validate_config({"command": "limit-demo", "r1": 4, "r2": 4,
                           "t_axes": [0.5, 1.0, 2.0], "n_reps": 10,
                           "out": str(tmp_path / "demo")})
    run(cfg)
    assert len(seen) == 2 and seen[0] is seen[1] is cfg.t_points
    assert cfg.t_points.tolist() == [[a, b] for a in (0.5, 1.0, 2.0)
                                     for b in (0.5, 1.0, 2.0)]


def test_limit_demo_t_axes_are_bounded_by_the_floor_index(tmp_path, capsys):
    # far t values cost no lattice; only floor(t r) past 2^31 is refused
    cfg = {"r1": 512, "r2": 512, "t_axes": [1.0, 10.0], "n_reps": 200}
    assert _main_with_config(tmp_path, json.dumps(cfg), "limit-demo") == 0
    assert "10/10 entries" in capsys.readouterr().out
    cfg["t_axes"] = [1.0, 1e7]
    assert _main_with_config(tmp_path, json.dumps(cfg), "limit-demo") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: t_axes") and "Traceback" not in err


@pytest.mark.parametrize("r1, r2, key", [(0, 4, "r1"), (600, 4, "r1"),
                                         (513, 4, "r1"), (4, 0, "r2"),
                                         (4, 513, "r2"), (0, 0, "r1")])
def test_limit_demo_scale_error_names_the_factor(tmp_path, capsys, r1, r2, key):
    # a scaling factor out of [1, 512] was reported under t_axes
    argv = ["limit-demo", "--r1", str(r1), "--r2", str(r2), "--n-reps", "10",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {key}: must lie in [1, 512], got " \
        f"{r1 if key == 'r1' else r2}\n"
    with pytest.raises(ValueError, match=f"^{key}: must lie in"):
        limit_partial_sums(r1, r2, [(1.0, 1.0)], n_reps=2)


def test_limit_demo_scale_bounds_are_valid():
    for r in (1, 512):
        cfg = validate_config({"command": "limit-demo", "r1": r, "r2": r,
                               "t_axes": [1.0, 2.0]})
        assert (cfg.params["r1"], cfg.params["r2"]) == (r, r)


def _samples_csv_per_row(path, values):
    """The per-row writer samples.csv had: a dict per draw, each cell
    formatted on its own."""
    rows = [{"rep": r, "point": p, "value": values[r, p]}
            for r in range(values.shape[0]) for p in range(values.shape[1])]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rep", "point", "value"])
        for row in rows:
            writer.writerow([row["rep"], row["point"], f"{row['value']:.17g}"])


def test_samples_csv_matches_the_per_row_writer(tmp_path, monkeypatch):
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
    # values whose shortest and 17-digit forms differ, signed zeros,
    # extremes; ties at the 18th digit, which round half to even; 1e-6,
    # which is below 10^-6; both sides of the positional/exponent switch;
    # doubles just below a power of ten
    edge = np.array([[0.1, -0.0, 1.0, -1e-300], [5e-324, 1.7976931348623157e308,
                                                 -2.5, 1 / 3],
                     [1234567890123456.75, 1234567890123457.25, 1e-6,
                      9.9999999999999995e-07],
                     [9.99999999999999e-5, 1e-4, 1e-5, 1e16],
                     [9.999999999999999e16, 1e23, 0.0, -1e-4]])
    _samples_csv_per_row(tmp_path / "edge_oracle.csv", edge)
    for block in (1, 7, cli.BLOCK):   # one line, and blocks that split reps
        monkeypatch.setattr(cli, "BLOCK", block)
        _write_samples(tmp_path / "edge.csv", edge)
        data = (tmp_path / "edge.csv").read_bytes()
        assert data == (tmp_path / "edge_oracle.csv").read_bytes()
    for text in (b"1234567890123456.8", b"1234567890123457.2",
                 b"9.9999999999999995e-07", b"99999999999999984",
                 b"9.9999999999999992e+22"):
        assert b"," + text + b"\r\n" in data


@pytest.mark.parametrize("n_points", [1, 144])
def test_samples_csv_blocks_of_whole_reps_keep_the_bytes(tmp_path,
                                                         monkeypatch,
                                                         n_points):
    # a block holds max(1, BLOCK // n_points) whole reps and formats its
    # values in one format_17g call; reps 0-11 change the rep label's
    # width within a block, and 144 points exceed BLOCK at 1, 7 and 143
    rng = np.random.default_rng(21)
    values = rng.standard_normal((12, n_points)) * 10.0 ** rng.integers(
        -9, 19, (12, n_points))
    values[0, :1] = -0.0
    values[-1, -1:] = 5e-324
    _samples_csv_per_row(tmp_path / "oracle.csv", values)
    calls = []
    real = cli.csvtext.format_17g
    monkeypatch.setattr(cli.csvtext, "format_17g",
                        lambda x, out=None: calls.append(1) or real(x, out))
    for block in (1, 7, 143, 144, 145, 4096):
        monkeypatch.setattr(cli, "BLOCK", block)
        calls.clear()
        _write_samples(tmp_path / "samples.csv", values)
        assert (tmp_path / "samples.csv").read_bytes() == \
            (tmp_path / "oracle.csv").read_bytes(), block
        assert len(calls) == -(-12 // max(1, block // n_points)), block


def test_report_csv_matches_the_per_row_writer(tmp_path, monkeypatch):
    # each line holds its pair's estimate, se, reference and z, in blocks
    # of two lines (cli.BLOCK = 10) and of all 21, with values for
    # both of format_17g's paths in every column
    rng = np.random.default_rng(8)
    emp, se, cov = rng.standard_normal((3, 6, 6)) * 10.0 ** rng.integers(
        -9, 19, (3, 6, 6))
    emp[0, :4], cov[1, 1:5] = [-0.0, 5e-324, 1e23, 0.1], [1e-6, 0.0, -1e17, 7.0]
    se = np.abs(se) + 1e-300
    i, j = np.triu_indices(6)
    z = (emp[i, j] - cov[i, j]) / se[i, j]
    oracle = b"probe,statistic,estimate,se,reference,z\r\n" + b"".join(
        b"%d-%d,cov,%.17g,%.17g,%.17g,%.17g\r\n" % row for row in zip(
            i.tolist(), j.tolist(), emp[i, j].tolist(), se[i, j].tolist(),
            cov[i, j].tolist(), z.tolist()))
    for block in (10, cli.BLOCK):
        monkeypatch.setattr(cli, "BLOCK", block)
        counts = cli._write_report(tmp_path / "report.csv", emp, se, cov)
        assert (tmp_path / "report.csv").read_bytes() == oracle
        assert counts == (np.count_nonzero(np.abs(z) <= 4.0), 21)


def _reemitted(path):
    """The bytes the pre-template writer (``csv.writer``, each cell
    formatted on its own) gives for the table at ``path`` once its numeric
    cells are read back.

    A 17-significant-digit float reads back to the same double, so any drift
    in digits, quoting or line ends makes the two differ."""
    def cell(text):
        if text.startswith("[") and text.endswith("]"):
            return oracle.point_cell(float(v) for v in text[1:-1].split())
        try:
            return f"{float(text):.17g}"
        except ValueError:
            return text

    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(c) for c in row])
    return buf.getvalue().encode()


_FBS = {"family": "fbs", "H": [0.3, 0.7]}
# points near 0 draw values of 1e-8 and below: the exponent form, Python's
# %.17g below 1e-6 and the exact path above it, and both signs
_TINY_SIMULATE = {"command": "simulate", "spec": _FBS,
                  "grid": {"axes": [[1e-9, 1e-3, 0.5, 2.0], [1e-8, 1e-4, 1.0]]},
                  "n_samples": 100, "seed": 6}
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
    pytest.param(_TINY_SIMULATE, ["samples.csv", "report.csv"],
                 id="simulate-tiny-axes"),
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


def test_table_blocks_keep_the_bytes(tmp_path, monkeypatch):
    # samples.csv and report.csv are written cli.BLOCK floats at a time;
    # samples.csv blocks that split reps, report.csv blocks of one, two and
    # three lines (four floats a line), and the default agree
    files = []
    for block in (4, 7, 10, 13, cli.BLOCK):
        monkeypatch.setattr(cli, "BLOCK", block)
        out = tmp_path / str(block)
        run(validate_config(dict(_TINY_SIMULATE, out=str(out))))
        files.append([(out / name).read_bytes()
                      for name in ("samples.csv", "report.csv")])
    assert all(f == files[-1] for f in files)


def test_report_csv_is_written_in_block_memory(tmp_path, monkeypatch):
    # report.csv holds n_points^2 / 2 lines; it is built a block of pairs
    # at a time, so on a 32x32 grid (524,800 lines) its peak stays within
    # 2 MB of the run's peak up to samples.csv, where arrays over every
    # pair would add about 20 MB
    peaks = []
    write_samples = cli._write_samples

    def traced(path, values):
        write_samples(path, values)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    monkeypatch.setattr(cli, "_write_samples", traced)
    axis = np.linspace(0.1, 3.2, 32).tolist()
    cfg = validate_config({"command": "simulate", "spec": _FBS,
                           "grid": {"axes": [axis, axis]}, "n_samples": 100,
                           "seed": 6, "out": str(tmp_path)})
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert run(cfg) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert "524800/524800 covariance entries" in out.getvalue()
    assert peaks[1] <= peaks[0] + 2e6, peaks


@pytest.mark.parametrize("block", [1, 2, 7, 64, cli.BLOCK // 4])
def test_pair_blocks_walk_the_upper_triangle(monkeypatch, block):
    # one walk serves both pair tables: the pairs of np.triu_indices(n) in
    # its order, blocks of BLOCK // 4 pairs but the last, flat indices i n + j
    monkeypatch.setattr(cli, "BLOCK", 4 * block)
    assert list(cli._pair_blocks(0)) == []
    for n in range(1, 41):
        blocks = list(cli._pair_blocks(n))
        sizes = [len(i) for i, _, _ in blocks]
        assert sizes[:-1] == [block] * (len(sizes) - 1) and sizes[-1] <= block
        i, j, flat = (np.concatenate(parts) for parts in zip(*blocks))
        want_i, want_j = np.triu_indices(n)
        np.testing.assert_array_equal(i, want_i)
        np.testing.assert_array_equal(j, want_j)
        np.testing.assert_array_equal(flat, want_i * n + want_j)


def test_pair_blocks_keep_the_bytes(tmp_path, monkeypatch, capsys):
    # report.csv and limit_demo.csv are written BLOCK // 4 pairs at a
    # time; blocks of one pair, of seven and the default (49 t points give
    # limit_demo.csv 1,225 lines, two default blocks) agree, counts too
    demo = {"command": "limit-demo", "r1": 4, "r2": 3, "n_reps": 20,
            "t_axes": np.linspace(0.5, 2.0, 7).tolist(), "seed": 2}
    files = []
    for block in (1, 7, cli.BLOCK // 4):
        monkeypatch.setattr(cli, "BLOCK", 4 * block)
        out = tmp_path / str(block)
        for cfg in (_TINY_SIMULATE, demo):
            run(validate_config(dict(cfg, out=str(out))))
        files.append([capsys.readouterr().out] + [
            (out / name).read_bytes() for name in ("report.csv",
                                                   "limit_demo.csv")])
    assert files[-1][2].count(b"\r\n") == 1 + 49 * 50 // 2
    assert all(f == files[-1] for f in files)


def test_limit_demo_csv_is_written_in_block_memory(tmp_path, monkeypatch):
    # limit_demo.csv holds m^2 / 2 lines for m t points; it is built a
    # block of pairs at a time, so on 16 t-axis values (256 points, 32,896
    # lines) its peak stays within 2 MB of the demo's own, where rows over
    # every pair would add about 20 MB
    peaks = []
    demo = cli.limit_partial_sums

    def traced(*args, **kwargs):
        result = demo(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return result

    monkeypatch.setattr(cli, "limit_partial_sums", traced)
    cfg = validate_config({"command": "limit-demo", "r1": 16, "r2": 16,
                           "t_axes": np.linspace(1.0, 2.0, 16).tolist(),
                           "n_reps": 50, "seed": 3, "out": str(tmp_path)})
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            run(cfg)
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert "/32896 entries" in out.getvalue()
    assert peaks[1] <= peaks[0] + 2e6, peaks


@pytest.mark.parametrize("r, t, key", [
    (0, [[1.0, 1.0]], "r1"),
    (513, [[1.0, 1.0]], "r1"),
    (8, [[1.0, 1.0], [-0.5, 1.0]], "t_points"),
    (8, [[1.0, 1.0, 1.0]], "t_points"),
    (512, [[1.0, 2.0**31 / 512]], "t_points"),
], ids=["r = 0", "r = 513", "negative t", "3-D t", "floor(t r) = 2^31"])
def test_limit_demo_arguments_have_one_check(r, t, key):
    # limit_partial_sums and the config reject the same cases, in the same
    # words; the config names the key, which a scale error names itself
    with pytest.raises(ValueError) as api:
        limit_partial_sums(r, r, t, n_reps=2)
    with pytest.raises(ConfigError) as config:
        validate_config({"command": "limit-demo", "r1": r, "r2": r,
                         "t_points": t})
    message = str(api.value)
    assert str(config.value) == (message if key.startswith("r")
                                 else f"{key}: {message}")
    assert str(config.value).startswith(f"{key}: ")


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


def test_spec_flags_without_spec_are_a_config_error(tmp_path, capsys):
    # they were dropped: the run exited 0 and echoed the file's theta and H
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"family": "mildtheta", "H": [0.3, 0.7],
                                "theta": 0.5}))
    assert main(["cov", "--config", str(path), "--theta", "-0.9",
                 "--H", "0.6", "0.6", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: --H, --theta need --spec\n"
    path.write_text(json.dumps({"spec": {"family": "mildtheta", "H": [0.3, 0.7],
                                         "theta": 0.5},
                                "s": [1, 1], "t": [2, 2]}))
    assert main(["cov", "--config", str(path), "--d0", "1",
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: --d0 need --spec\n"
    assert not (tmp_path / "config_echo.json").exists()


# config keys that only a --config file can set; "command" is the subcommand
_CONFIG_ONLY = {"command", "grid", "probes", "t_axes", "t_points", "weights"}


def test_the_parser_offers_the_flags_of_the_validated_keys():
    parser = cli._PARSER
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(cli._COMMANDS) == list(cli._HANDLERS)
    n_flags = 0
    for command, p in sub.choices.items():
        keys = cli._COMMON_KEYS | cli._COMMAND_KEYS[command]
        if "spec" in keys:
            keys |= {"H", "weights", "theta", "gamma", "d0", "d1"}
        want = {"--" + k.replace("_", "-") for k in keys - _CONFIG_ONLY}
        got = {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
        assert got == want | {"--config"}, command
        n_flags += len(got)
    assert n_flags == 63
    # each family's keys are its dataclass fields, (h1, h2) read as H
    assert cli._SPEC_FIELDS == {
        "fbs": {"H"}, "strict": {"H", "weights"}, "strict2d": {"H", "gamma"},
        "mildtheta": {"H", "theta"}, "yhalf": {"theta"}, "zhalf": {"gamma"},
        "movingpair": {"H", "d0", "d1"}}
    for c in (FBS, StrictGeneral, Strict2D, MildTheta, YHalf, ZHalf,
              MovingPair):
        assert cli._SPEC_FIELDS[c.family] == {
            "H" if f in ("h1", "h2") else f for f in c.__dataclass_fields__}
    suite = next(a for a in sub.choices["check"]._actions
                 if a.dest == "suite")
    assert list(suite.choices) == list(cli._SUITES) == [
        "lemmas", "densities", "criteria", "ma"]


def _exit(parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)`` when it exits."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parse(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return [code, out.getvalue(), err.getvalue()]


# main's help and argument errors at an 80-column terminal, as printed when
# it built a parser per call
_PARSER_BYTES = json.loads(
    (Path(__file__).with_name("cli_parser_bytes.json")).read_text())
_PARSER_LINES = ["--help", "--bogus", "bogus", ""] + [
    f"{c} {flag}" for c in cli._COMMANDS
    for flag in ("--help", "--bogus", "--config")]


def _not_built():
    raise AssertionError("main built a parser")


def test_main_runs_without_building_a_parser(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_build_parser", _not_built)
    assert main(["cov", "--spec", "fbs", "--H", "0.5", "0.5", "--s", "1", "1",
                 "--t", "2", "2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "cov.csv").exists()


@pytest.mark.parametrize("line", _PARSER_LINES,
                         ids=[line or "no-command" for line in _PARSER_LINES])
def test_main_prints_the_help_and_errors_of_the_full_parser(monkeypatch, line):
    monkeypatch.setenv("COLUMNS", str(_PARSER_BYTES["columns"]))
    want = _PARSER_BYTES["runs"][line]
    # argparse words its help and errors differently across Python
    # versions; the bytes were captured on the version named in the file,
    # and elsewhere main prints what a newly built parser prints
    if _PARSER_BYTES["python"] != "%d.%d" % sys.version_info[:2]:
        want = _exit(cli._build_parser().parse_args, line.split())
    monkeypatch.setattr(cli, "_build_parser", _not_built)
    assert _exit(main, line.split()) == want


def test_a_spec_has_at_most_max_dim_components(tmp_path, capsys, monkeypatch):
    # the work of a spec grows like 4^N: classify's default plan took 10 s
    # and 206 MB at N = 8, and cov of an fbs spec 18 s at N = 12
    def spec(n, family="fbs"):
        d = {"family": family, "H": [0.3, 0.7, 0.4, 0.6, 0.35, 0.65, 0.45,
                                     0.55][:n]}
        if family == "strict":   # equal weights on every sign vector
            d["weights"] = {"".join(e): 0.5 ** n
                            for e in itertools.product("+-", repeat=n)}
        return d

    n = cli.MAX_DIM
    configs = [
        lambda n: {"command": "cov", "spec": spec(n), "s": [1] * n,
                   "t": [2] * n},
        lambda n: {"command": "classify", "spec": spec(n)},
        lambda n: {"command": "cov", "spec": spec(n, "strict"),
                   "s": [1] * n, "t": [2] * n},
    ]
    for config in configs:   # MAX_DIM components pass validation
        assert len(validate_config(config(n)).spec.hurst) == n

    def not_built(*args, **kwargs):
        raise AssertionError("built before the ceiling was checked")

    for name in ("StrictWeights", "make_kernel", "ProbePlan"):
        monkeypatch.setattr(cli, name, not_built)
    monkeypatch.setattr(cli, "_SPEC_CLASSES",
                        dict.fromkeys(cli._SPEC_CLASSES, not_built))
    for config in configs:
        start = time.perf_counter()
        assert _main_with_config(tmp_path, json.dumps(config(n + 1)),
                                 config(n + 1)["command"]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"config error: spec.H: {n + 1} components exceed {n}\n")


_ALL_DIGITS = 0.30000000000000004   # reads back only from 17 digits


def _point_run(command, n):
    """The config keys, table, point columns and expected points of a
    ``command`` run whose points have a coordinate that needs 17 digits."""
    a, b = (_ALL_DIGITS,) + (1.5,) * (n - 1), (2 / 3,) + (_ALL_DIGITS,) * (n - 1)
    spec = {"family": "fbs", "H": [0.3, 0.7, 0.6][:n]}
    if command == "cov":
        return {"spec": spec, "s": a, "t": b}, "cov.csv", ("s", "t"), [(a, b)]
    if command == "density":
        return {"spec": spec, "x": [a, b]}, "density.csv", ("x",), [(a,), (b,)]
    if command == "limit-demo":   # 2-D
        t = [[_ALL_DIGITS, 1.0], [2 / 3, _ALL_DIGITS], [1.5, 0.5]]
        return ({"r1": 8, "r2": 8, "t_points": t, "n_reps": 10},
                "limit_demo.csv", ("t_i", "t_j"),
                [(t[i], t[j]) for i in range(3) for j in range(i, 3)])
    plan = _point_plan(n)   # classify and mc: var rows, then cross rows
    var_cross = [(u1, v) for u1, u2 in plan.u_pairs for v in (u1, u2)]
    if command == "classify":
        return ({"spec": spec}, "classify_probes.csv", ("u1", "u2", "h"),
                [(u1, v, h) for u1, v in var_cross for h in plan.shifts])
    return ({"spec": spec, "n_samples": 100}, "mc.csv", ("h",),
            [(h,) for _ in var_cross for h in plan.shifts])


def _point_plan(n):
    u = (((_ALL_DIGITS,) + (1.5,) * (n - 1), (2 / 3,) * n),
         ((1,) * n, (0.7,) + (_ALL_DIGITS,) * (n - 1)))
    return ProbePlan(u_pairs=u, shifts=((_ALL_DIGITS,) + (0.1,) * (n - 1),
                                        (np.float64(1 / 7),) * n))


_POINT_RUNS = [(c, n) for c in ("cov", "density", "classify", "mc")
               for n in (1, 2, 3)] + [("limit-demo", 2)]


@pytest.mark.parametrize("command, n", _POINT_RUNS,
                         ids=[f"{c}-{n}d" for c, n in _POINT_RUNS])
def test_point_cells_are_their_coordinates_at_17_digits(tmp_path, command, n):
    # every table writes its points in its row template; each point cell is
    # the point written one coordinate at a time
    assert f"{_ALL_DIGITS:.16g}" != f"{_ALL_DIGITS:.17g}"
    extra, name, cells, want = _point_run(command, n)
    cfg = validate_config({"command": command, **extra, "out": str(tmp_path)})
    if cfg.plan is not None:
        cfg.plan = _point_plan(n)
    run(cfg)
    with open(tmp_path / name, newline="") as fh:
        got = [tuple(r[c] for c in cells) for r in csv.DictReader(fh)]
    assert got == [tuple(map(oracle.point_cell, w)) for w in want]
    assert repr(_ALL_DIGITS) in (tmp_path / name).read_text()
