"""The layer-figure script of the benchmark runs against the library."""

import os
import subprocess
import sys
from pathlib import Path

import rectfield

_SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layer_figures_script_runs():
    # the script calls library internals directly (cov_moving_pair and the
    # movingavg caches) and no other test imports it
    src = str(Path(rectfield.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(_SCRIPT)], capture_output=True,
                          text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": src,
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["layer", "median"]
    assert len(rows) == 11
