"""The benchmark's own tests: smoke workloads pass, corrupted outputs fail.

Run with ``python -m pytest bench`` (``src`` on PYTHONPATH).
"""

from __future__ import annotations

import csv
import shutil

import pytest

import checks
import run
import workloads

cli = pytest.importorskip("rectfield.cli")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{label: (config, output dir)} of every smoke workload, run once."""
    root = tmp_path_factory.mktemp("smoke")
    out = {}
    for name in workloads.WORKLOADS:
        for label, cfg in workloads.build(name, seed=3, size="smoke"):
            cfg = dict(cfg, out=str(root / name / label))
            rc = cli.run(cli.validate_config(dict(cfg)))
            assert rc == 0, (name, label)
            out[f"{name}/{label}"] = (cfg, root / name / label)
    return out


def test_smoke_outputs_pass_every_check(outputs):
    for key, (cfg, path) in outputs.items():
        assert checks.check(cfg, path) == [], key


def _edit(path, row, column, fn):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    rows[row][column] = fn(rows[row][column])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns)
        writer.writeheader()
        writer.writerows(rows)


def _scale(factor):
    return lambda v: f"{float(v) * factor:.17g}"


def _swap(v):
    return "mild_only" if v == "strict_wide" else "strict_wide"


def _var_row(path):
    with open(path, newline="") as fh:
        return next(i for i, r in enumerate(csv.DictReader(fh))
                    if r["kind"] == "var")


TINY = _scale(1 + 1e-6)
CORRUPTIONS = [
    ("simulate-grid/simulate", "report.csv", 5, "reference", TINY),
    ("simulate-grid/simulate", "report.csv", 5, "se", TINY),
    ("simulate-grid/simulate", "samples.csv", 7, "value", _scale(-1.0)),
    ("simulate-grid/simulate", "grid.csv", 2, "t1", TINY),
    ("classify-closed/classify-strict", "classify.csv", 0, "label", _swap),
    ("classify-closed/classify-mildtheta", "classify.csv", 0, "label", _swap),
    ("classify-closed/classify-fbs", "classify_probes.csv", "var", "value", TINY),
    ("classify-closed/classify-yhalf", "classify_probes.csv", 3, "value", TINY),
    ("classify-closed/classify-zhalf", "classify_probes.csv", 0, "reference",
     TINY),
    ("classify-closed/mc-strict2d", "mc.csv", 1, "analytic", TINY),
    ("movingpair-quad/classify-power", "classify_probes.csv", "var", "value",
     TINY),
    ("movingpair-quad/classify-half", "classify_probes.csv", 1, "value", TINY),
    ("movingpair-quad/mc-half", "mc.csv", 0, "analytic", TINY),
    ("movingpair-quad/check-densities", "check_densities.csv", 8, "closed_re",
     TINY),
    ("movingpair-quad/check-ma", "check_ma.csv", 5, "closed_re", TINY),
    ("movingpair-quad/check-lemmas", "check_lemmas.csv", 0, "pass",
     lambda v: "false"),
    ("movingpair-quad/density", "density.csv", 17, "value", TINY),
    ("limit-demo/limit-demo", "limit_demo.csv", 4, "limit", TINY),
    ("limit-demo/limit-demo", "limit_demo.csv", 4, "exact_prelimit", TINY),
    ("limit-demo/limit-demo", "limit_demo.csv", 4, "se", TINY),
]


@pytest.mark.parametrize("key,name,row,column,fn", CORRUPTIONS,
                         ids=[f"{c[0]}:{c[1]}:{c[3]}" for c in CORRUPTIONS])
def test_check_rejects_corrupted_output(outputs, tmp_path, key, name, row,
                                        column, fn):
    cfg, path = outputs[key]
    bad = tmp_path / "out"
    shutil.copytree(path, bad)
    if row == "var":
        row = _var_row(bad / name)
    _edit(bad / name, row, column, fn)
    assert checks.check(cfg, bad)


def test_check_rejects_shifted_estimates(outputs, tmp_path):
    """The 4-SE coverage checks fail when every estimate is biased."""
    for key, name in (("classify-closed/mc-yhalf", "mc.csv"),
                      ("simulate-grid/simulate", "report.csv"),
                      ("limit-demo/limit-demo", "limit_demo.csv")):
        cfg, path = outputs[key]
        bad = tmp_path / key.replace("/", "-")
        shutil.copytree(path, bad)
        n = sum(1 for _ in open(bad / name)) - 1
        for i in range(n):
            _edit(bad / name, i, "estimate", _scale(3.0))
        assert checks.check(cfg, bad), key


def _keep(path, keep):
    """Rewrite a CSV with only the rows for which ``keep(index, row)`` holds."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        columns, rows = reader.fieldnames, list(reader)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns)
        writer.writeheader()
        writer.writerows(r for i, r in enumerate(rows) if keep(i, r))


@pytest.mark.parametrize("key,name,keep", [
    # one shift fewer per (pair, kind): a classify that skips probes
    ("classify-closed/classify-strict", "classify_probes.csv",
     lambda i, r: i % 2 == 0),
    ("movingpair-quad/classify-power", "classify_probes.csv",
     lambda i, r: r["kind"] == "var"),
    ("classify-closed/mc-yhalf", "mc.csv", lambda i, r: i > 0),
    ("movingpair-quad/check-lemmas", "check_lemmas.csv", lambda i, r: False),
    ("movingpair-quad/check-ma", "check_ma.csv",
     lambda i, r: r["identity"] != "ma_reproduces_fbs"),
    ("movingpair-quad/check-densities", "check_densities.csv",
     lambda i, r: i != 2),
], ids=["classify-half-shifts", "classify-no-cross", "mc-row", "suite-empty",
        "suite-identity", "suite-row"])
def test_check_rejects_skipped_work(outputs, tmp_path, key, name, keep):
    """Outputs with probes or identity rows left out fail their check."""
    cfg, path = outputs[key]
    bad = tmp_path / "out"
    shutil.copytree(path, bad)
    _keep(bad / name, keep)
    assert checks.check(cfg, bad)


def test_failed_invocation_makes_the_run_incorrect(monkeypatch, tmp_path):
    metric = {"median": 1.0, "unit": "s"}
    result = {"trace": 0, "attempted": 4, "failed": 1,
              "failures": ["simulate: exit status 1"],
              "end_to_end": {m: dict(metric) for m in run.END_TO_END}}
    assert run.result_line(result)["correct"] is False
    assert run.result_line(dict(result, failed=0))["correct"] is True
    monkeypatch.setattr(run, "run_workload", lambda *a, **k: result)
    monkeypatch.setattr(run, "HERE", tmp_path)
    assert run.main(["--workload", "limit-demo", "--seconds", "1"]) == 1


def test_times_scale_to_the_reference_host_speed():
    slow = {k: 2 * v for k, v in run.CAL_REF_S.items()}
    rounds = [{"cal_s": [slow] * 4}, {"cal_s": [run.CAL_REF_S] * 4}]
    speeds = run.host_speeds(rounds, ("python", "numpy"))
    assert speeds == [2.0, 1.0]
    run_s = run._end_to_end("run_s", [2.0, 1.0], speeds)
    assert run_s["samples"] == [1.0, 1.0] and run_s["raw"]["median"] == 1.5
    assert run._end_to_end("peak_rss_mb", [80.0], speeds)["median"] == 80.0
    assert set(run.workloads.RUN_CALIBRATION) == set(workloads.WORKLOADS)


def test_differing_samples_digest_fails_the_invocation():
    rounds = [{"invocations": [{"label": "simulate", "failures": [],
                                "samples_sha256": d}]} for d in "aab"]
    run.mark_nondeterministic(rounds)
    assert [r["invocations"][0]["failures"] != [] for r in rounds] == \
        [False, False, True]


def test_traced_counts_repeat_and_self_times_fit(tmp_path):
    reports = [run.run_round("movingpair-quad", 5, "smoke", True,
                             tmp_path / f"r{i}") for i in range(2)]
    counts = [{k: v for k, v in r["layer"].items() if run._unit(k) != "s"}
              for r in reports]
    assert counts[0] == counts[1]
    assert counts[0]["quadrature.neval"] > 0
    for r in reports:
        assert r["layer"]["trace.self_sum_s"] <= r["run_s"]
        assert all(not inv["failures"] for inv in r["invocations"])
