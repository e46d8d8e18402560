"""Benchmark of the rectfield CLI: four workloads, end-to-end and per-layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steadiness [--workload NAME] --seeds 10 --seconds S

A run repeats whole rounds of the workload, each in a fresh interpreter
(``round.py``), until ``--seconds`` have passed, and reports the median
over rounds, with each round's times scaled to a reference host speed
that a fixed calibration task beside the round measures
(``host_speeds``).  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced rounds and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object; the full record, with every round's samples
and the environment, goes to ``bench/results/BENCH_<label>.json``.
The steadiness mode runs every workload once per seed and prints the
median and interquartile spread of each end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ behind in bench/

import workloads  # noqa: E402

BLAS_THREADS = "1"
ROUND_TIMEOUT_S = 60
END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Times are reported at a reference host speed: the seconds the round
# would have taken on a host where each part of round.calibrate() takes
# CAL_REF_S.  Set-up (imports, config validation) is interpreter work and
# is scaled by both parts; each workload's run phase by the parts listed
# in workloads.RUN_CALIBRATION.
CAL_REF_S = {"python": 0.025, "numpy": 0.0125}
SETUP_CALIBRATION = ("python", "numpy")
UNITS = {"cli.csv_bytes": "bytes", "movingavg.cache_hit_ratio": "ratio"}


def _unit(name):
    return "s" if name.endswith(("_s", ".s")) else UNITS.get(name, "count")


def _child_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    return env


def run_round(workload, seed, size, trace, work, setup_only=False):
    """Run one round in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--work", str(work),
           "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"round of {workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    report = json.loads(lines[-1])
    if not Path(report["rectfield"]).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported {report['rectfield']}, not this checkout")
    report["setup_s"] = report["setup_end"] - t_spawn
    return report


def summary(values):
    """Median, and the quartiles once there are four samples."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 4:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def host_speeds(rounds, parts):
    """How fast the host ran during each round, relative to the reference.

    The median over a round's calibration runs of the time of ``parts``,
    as a share of their reference time; above 1 in a slower period.  The
    hosts this benchmark was built on change speed by up to 1.8x over
    seconds to minutes, for pure-Python and numpy code alike, and raw
    times follow; divided by this, the times of one commit repeat.
    """
    ref = sum(CAL_REF_S[p] for p in parts)
    return [statistics.median(sum(c[p] for p in parts) for c in r["cal_s"])
            / ref for r in rounds]


def _end_to_end(name, raw, speeds):
    """Summary of one end-to-end metric; times at the reference speed."""
    if END_TO_END[name] != "s":
        return dict(summary(raw), unit=END_TO_END[name], samples=raw)
    scaled = [v / x for v, x in zip(raw, speeds)]
    return dict(summary(scaled), unit="s", samples=scaled,
                raw=dict(summary(raw), samples=raw))


def mark_nondeterministic(rounds):
    """Fail invocations whose samples.csv differs from the first round's.

    Every round of a run uses the same configs, so the same seed must give
    byte-identical samples.
    """
    digests = {}
    for r in rounds:
        for inv in r["invocations"]:
            if "samples_sha256" in inv:
                first = digests.setdefault(inv["label"], inv["samples_sha256"])
                if inv["samples_sha256"] != first:
                    inv["failures"].append("samples.csv differs from the "
                                           "first round's for the same seed")


def run_workload(workload, seed, seconds, trace, size="full"):
    work_root = HERE / ".work" / f"{os.getpid()}"
    # one set-up-only round first, so the rounds that count find the
    # interpreter and libraries in the page cache
    run_round(workload, seed, size, False, work_root / "warm", setup_only=True)
    rounds = []
    deadline = time.monotonic() + seconds
    while True:
        traced = bool(trace) and len(rounds) % 2 == 1
        rounds.append(run_round(workload, seed, size, traced,
                                work_root / f"r{len(rounds)}"))
        rounds[-1]["traced"] = traced
        if time.monotonic() >= deadline and (not trace or len(rounds) % 2 == 0):
            break
    shutil.rmtree(work_root, ignore_errors=True)
    try:
        work_root.parent.rmdir()
    except OSError:  # another run still works there
        pass

    mark_nondeterministic(rounds)
    attempted = sum(len(r["invocations"]) for r in rounds)
    failed = sum(bool(inv["failures"]) for r in rounds for inv in r["invocations"])
    plain = [r for r in rounds if not r["traced"]]
    samples = {m: [r[m] for r in plain] for m in END_TO_END}
    speeds = {"setup": host_speeds(plain, SETUP_CALIBRATION),
              "run": host_speeds(plain, workloads.RUN_CALIBRATION[workload])}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "rounds": len(rounds),
        "attempted": attempted, "failed": failed,
        "failures": sorted({f"{inv['label']}: {msg}" for r in rounds
                            for inv in r["invocations"]
                            for msg in inv["failures"]}),
        "end_to_end": {m: _end_to_end(m, v, speeds["setup" if m == "setup_s"
                                                   else "run"])
                       for m, v in samples.items()},
        "host_speeds": speeds, "cal_s": [r["cal_s"] for r in plain],
        "cli_seeds": {inv["label"]: inv["cli_seed"]
                      for inv in rounds[0]["invocations"] if "cli_seed" in inv},
        "invocation_seconds": {inv["label"]: [r["invocations"][i]["seconds"]
                                              for r in plain]
                               for i, inv in enumerate(rounds[0]["invocations"])},
        "environment": rounds[0]["environment"],
    }
    if trace:
        result["per_layer"] = _per_layer(rounds)
    return result


def _per_layer(rounds):
    traced = [r["layer"] for r in rounds if r["traced"]]
    plain_run = statistics.median(r["run_s"] for r in rounds if not r["traced"])
    traced_run = statistics.median(r["run_s"] for r in rounds if r["traced"])
    out = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        unit = _unit(name)
        if unit == "s":
            out[name] = dict(summary(values), unit=unit, samples=values)
        else:  # counts are deterministic; differing rounds would be a fault
            out[name] = {"median": values[0], "unit": unit,
                         "repeats_exactly": all(v == values[0] for v in values),
                         "source": "computed from call arguments"
                         if "normals_drawn" in name else "counted"}
    out["trace.run_s"] = {"median": traced_run, "unit": "s"}
    out["trace.overhead_s"] = {"median": traced_run - plain_run, "unit": "s"}
    return out


def _git_commit():
    """HEAD of the checkout, or None where the checkout is not a git tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return None
    return lines[1]


def write_record(label, result):
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    result = dict(result, label=label, git_commit=_git_commit(),
                  blas_threads=BLAS_THREADS)
    path = out / f"BENCH_{label}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return path


def result_line(result):
    """The run's verdict: correct only if no invocation failed.

    An invocation fails when it exits non-zero or an output check fails;
    a traced count that differs between rounds is a fault as well.
    """
    metrics = result["per_layer"] if result["trace"] else result["end_to_end"]
    correct = result["failed"] == 0 and all(
        m.get("repeats_exactly", True) for m in metrics.values())
    return {"correct": correct, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: {"value": m["median"], "unit": m["unit"]}
                        for k, m in metrics.items()}}


def steadiness(names, n_seeds, seconds, size, label):
    bounds = {}
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.exists():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec_path.read_text())["end_to_end"]}
    report = {}
    for name in names:
        medians = {m: [] for m in END_TO_END}
        failed = attempted = 0
        for seed in range(1, n_seeds + 1):
            res = run_workload(name, seed, seconds, False, size)
            write_record(f"{label}-{name}-seed{seed}", res)
            attempted += res["attempted"]
            failed += res["failed"]
            for m in END_TO_END:
                medians[m].append(res["end_to_end"][m]["median"])
        report[name] = {"attempted": attempted, "failed": failed}
        print(f"{name}: {failed}/{attempted} invocations failed", flush=True)
        for m, v in medians.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / statistics.median(v)
            report[name][m] = {"median": statistics.median(v), "q1": q1,
                               "q3": q3, "spread": spread, "values": v}
            bound = bounds.get(m)
            verdict = "" if bound is None else \
                f"  bound {bound:g} ({'ok' if spread < bound / 3 else 'WIDE'})"
            print(f"  {m:12s} median {statistics.median(v):10.4f} "
                  f"{END_TO_END[m]:3s} IQR/median {spread:.4f}{verdict}",
                  flush=True)
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--size", default="full", choices=workloads.SIZES)
    p.add_argument("--label", help="names the BENCH_<label>.json record")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "rectfield" / "cli.py").is_file():
        print(f"error: no rectfield sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.steadiness:
        names = [args.workload] if args.workload else list(workloads.WORKLOADS)
        label = args.label or "steadiness"
        report = steadiness(names, args.seeds, args.seconds, args.size, label)
        write_record(label, {"steadiness": report, "seconds": args.seconds})
        return 0
    if args.workload is None:
        p.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                          args.size)
    write_record(args.label or f"{args.workload}-seed{args.seed}"
                 f"-trace{args.trace}", result)
    line = result_line(result)
    for f in result["failures"]:
        print(f"FAILED {f}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
