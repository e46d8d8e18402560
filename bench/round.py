"""One round of a workload in a fresh interpreter.

Set-up is everything from interpreter start until ``rectfield.cli`` is
imported and every config of the workload is written and validated.  The
run phase calls ``rectfield.cli.main`` once per invocation, in order, in
this process.  A fixed calibration task runs twice before and twice
after the run phase, untimed by the metrics; ``run.py`` scales the round's
times by it.  Output checks run after the run phase and are not timed.
The last line of standard output is a JSON report for ``run.py``.

    python bench/round.py --workload NAME --seed N --size full|smoke \\
        --work DIR [--trace 1] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0))}


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def calibrate():
    """Seconds of two fixed reference tasks that never touch rectfield.

    ``python``: a pure-Python loop of float math, about 25 ms on a
    2.1 GHz vCPU.  ``numpy``: six passes of Philox normals and a
    cumulative sum over one small buffer, about 12 ms.  Timed beside each
    round's run phase, they show how fast the host runs at that moment.
    """
    import numpy as np
    out = {}
    t = time.perf_counter()
    acc = 0.0
    for i in range(1, 150_001):
        acc += math.log(i) * 0.5
    out["python"] = time.perf_counter() - t
    rng = np.random.Generator(np.random.Philox(7))
    x = np.empty(100_000)  # small, so it never sets the round's peak RSS
    t = time.perf_counter()
    for _ in range(6):
        rng.standard_normal(out=x)
        np.cumsum(x, out=x)
    out["numpy"] = time.perf_counter() - t
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=workloads.SIZES)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import rectfield.cli as cli
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    args.work.mkdir(parents=True, exist_ok=True)
    prepared = []
    for label, cfg in workloads.build(args.workload, args.seed, args.size):
        cfg = dict(cfg, out=str(args.work / label))
        text = json.dumps(cfg)
        path = args.work / f"{label}.json"
        path.write_text(text)
        cli.parse_config(text)
        prepared.append((label, cfg, [cfg["command"], "--config", str(path)]))
    validate_s = tracer.stats["cli:validate_config"][1] if tracer else None
    setup_end = time.monotonic()
    report = {"setup_end": setup_end, "rectfield": cli.__file__}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    cal = [calibrate(), calibrate()]
    if tracer:
        tracer.reset()
    timings = []
    cpu0 = _cpu()
    t0 = time.perf_counter()
    with open(args.work / "cli.log", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        for label, cfg, argv_ in prepared:
            t = time.perf_counter()
            try:
                rc = cli.main(argv_)
            except Exception:  # a crash is a failed invocation, not a lost run
                rc = traceback.format_exc(limit=3)
            timings.append((rc, time.perf_counter() - t))
    run_s = time.perf_counter() - t0
    cpu_s = _cpu() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cal += [calibrate(), calibrate()]
    layer = None
    if tracer:
        layer = tracer.metrics()
        layer["cli.validate_s"] = validate_s

    import checks  # after the run phase, so set-up time is the program's
    invocations = []
    for (label, cfg, _), (rc, seconds) in zip(prepared, timings):
        fails = [] if rc == 0 else [f"exit status {rc}"]
        if rc in (0, 1):  # artifacts are written on both statuses
            try:
                fails += checks.check(cfg, Path(cfg["out"]))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                fails.append(f"outputs unreadable: {exc!r}")
        inv = {"label": label, "seconds": seconds, "failures": fails}
        samples = Path(cfg["out"]) / "samples.csv"
        if samples.exists():
            inv["samples_sha256"] = checks.sha256(samples)
        if "seed" in cfg:
            inv["cli_seed"] = cfg["seed"]
        invocations.append(inv)
    report.update(environment=_environment(), run_s=run_s, cpu_s=cpu_s,
                  cal_s=cal, peak_rss_mb=peak_rss_mb,
                  invocations=invocations, layer=layer)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
