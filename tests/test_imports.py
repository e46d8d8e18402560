"""What each command imports, and when, each in a fresh interpreter.

Importing the package loads no SciPy: only ``check`` and ``density``
use it, and they load it while their config is validated.  They load the
top-level ``scipy`` package and, from its file, each compiled module they
call: QUADPACK for the suites that integrate (``lemmas``, ``densities``,
``ma``), the log-gamma ufuncs where g_H is evaluated.  Each suite names
those modules itself, and run alone it loads exactly them.  No command loads
the ``scipy.integrate`` or ``scipy.special`` package.  A validated config
then runs without importing any module, and the closed-form and sampling
commands run, with the same bytes, where SciPy cannot be imported.  No
command loads ``numpy.ma``, and only a sampler run with more than one
worker loads ``concurrent.futures``, while its config is validated.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rectfield
from rectfield import cli

_BENCH = Path(__file__).resolve().parents[1] / "bench"
_SRC = str(Path(rectfield.__file__).resolve().parents[1])

_MILD = {"family": "mildtheta", "H": [0.3, 0.7], "theta": 0.5}
# one small config per command and check suite; every one exits 0
_CONFIGS = {
    "cov": {"command": "cov", "spec": _MILD, "s": [1.0, 1.0],
            "t": [2.0, 1.5]},
    "density": {"command": "density",   # both sides of the Stirling switch
                "spec": {"family": "fbs", "H": [0.3, 0.7]},
                "x": [[0.5, 1.0], [25.0, -3.0]]},
    **{f"check-{suite}": {"command": "check", "suite": suite}
       for suite in cli._SUITES},
    "classify": {"command": "classify",
                 "spec": {"family": "strict2d", "H": [0.3, 0.7], "gamma": 0.5},
                 "probes": {"n_pairs": 2, "n_shifts": 2, "seed": 1}},
    "simulate": {"command": "simulate",
                 "spec": {"family": "fbs", "H": [0.3, 0.7]},
                 "grid": {"axes": [[0.5, 1.0], [1.0, 2.0]]},
                 "n_samples": 200, "seed": 3},
    "simulate-pool": {"command": "simulate",   # two chunks, two threads
                      "spec": {"family": "fbs", "H": [0.3, 0.7]},
                      "n_samples": 300, "seed": 3, "n_workers": 2},
    "mc": {"command": "mc", "spec": _MILD, "n_samples": 200, "seed": 5,
           "probes": {"n_pairs": 1, "n_shifts": 2, "seed": 2}},
    "limit-demo": {"command": "limit-demo", "r1": 16, "r2": 16,
                   "t_axes": [1.0, 2.0], "n_reps": 50, "seed": 4},
}
_USES_SCIPY = {"check", "density"}
_INTEGRATING = {"check-lemmas", "check-densities", "check-ma"}
_SCIPY_FREE = ("cov", "classify", "simulate", "mc", "limit-demo")


def _python(code: str, *args: str) -> dict:
    """The JSON object that ``code`` prints last, run in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": _SRC,
                               "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _write_config(tmp_path: Path, label: str, out: Path) -> Path:
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(dict(_CONFIGS[label], out=str(out))))
    return path


_IMPORT = """
import inspect, json, sys
import rectfield, rectfield.cli
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
unused = sorted({"numpy.ma", "concurrent.futures"} & set(sys.modules))
sys.path.insert(0, sys.argv[1])
from tracing import LAYERS
q = rectfield.quadrature
print(json.dumps({
    "scipy": scipy,
    "unused": unused,
    "missing": [n for n in LAYERS if n != "cli.csv"
                and not inspect.ismodule(sys.modules.get("rectfield." + n))],
    "quad": [inspect.isfunction(vars(q).get("quad")),
             getattr(q.quad, "__module__", None)],
    "panel_calls_global": "quad" in q._quad_panel.__code__.co_names,
}))
"""


def test_import_loads_no_scipy_and_every_traced_layer():
    # the tracer finds its layers in sys.modules and wraps the module
    # attribute quadrature.quad, which _quad_panel calls through its global
    got = _python(_IMPORT, str(_BENCH))
    assert got == {"scipy": [], "unused": [], "missing": [],
                   "quad": [True, "rectfield.quadrature"],
                   "panel_calls_global": True}


_RUN_PHASE = """
import json, sys
import rectfield.cli as cli
path, command = sys.argv[1:]
with open(path) as fh:
    cli.parse_config(fh.read())
scipy = "scipy" in sys.modules
quadpack = "scipy.integrate._quadpack" in sys.modules
before = set(sys.modules)
rc = cli.main([command, "--config", path])
print(json.dumps({"rc": rc, "scipy": scipy, "quadpack": quadpack,
                  "added": sorted(set(sys.modules) - before),
                  "unused": sorted({"numpy.ma", "concurrent.futures"}
                                   & set(sys.modules)),
                  "subpackages": sorted({"scipy.integrate", "scipy.special"}
                                        & set(sys.modules))}))
"""


@pytest.mark.parametrize("label", list(_CONFIGS))
def test_validated_config_runs_without_importing(tmp_path, label):
    # numpy.random (the first draw), locale (the argparse parser, built
    # when rectfield.cli is imported), SciPy's compiled modules (check,
    # density) and the thread pool (n_workers > 1) load before the run,
    # QUADPACK only for the suites that integrate; neither SciPy
    # subpackage loads at all, nor numpy.ma, which np.unique would load
    command = _CONFIGS[label]["command"]
    path = _write_config(tmp_path, label, tmp_path / "out")
    got = _python(_RUN_PHASE, str(path), command)
    assert got == {"rc": 0, "scipy": command in _USES_SCIPY,
                   "quadpack": label in _INTEGRATING, "added": [],
                   "unused": (["concurrent.futures"]
                              if label == "simulate-pool" else []),
                   "subpackages": []}


_COMPILED = """
import importlib.machinery, json, sys
import rectfield.cli as cli
if sys.argv[1]:
    cli._SUITES[sys.argv[1]]()
else:
    import scipy
print(json.dumps(sorted(
    name for name, mod in list(sys.modules.items())
    if name.split(".")[0] == "scipy" and isinstance(
        getattr(getattr(mod, "__spec__", None), "loader", None),
        importlib.machinery.ExtensionFileLoader))))
"""


@pytest.fixture(scope="module")
def scipy_own_compiled():
    """The compiled modules that importing the top-level scipy loads."""
    return set(_python(_COMPILED, ""))


@pytest.mark.parametrize("suite", list(cli._SUITES))
def test_each_suite_loads_exactly_the_compiled_modules_it_names(
        suite, scipy_own_compiled):
    # validation loads what a suite names, so a module it calls but does
    # not name, or names but does not call, fails here
    got = set(_python(_COMPILED, suite))
    assert scipy_own_compiled <= got
    assert sorted(got - scipy_own_compiled) == sorted(
        f"scipy.{name}" for name in cli._SUITES[suite].scipy)


_NO_SCIPY = """
import importlib.abc, json, sys


class NoSciPy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)


sys.meta_path.insert(0, NoSciPy())
import rectfield.cli as cli
codes = [cli.main([command, "--config", path])
         for command, path in json.loads(sys.argv[1])]
try:
    import scipy.special
    blocked = False
except ModuleNotFoundError:
    blocked = True
print(json.dumps({"codes": codes, "blocked": blocked}))
"""


def test_closed_form_commands_run_without_scipy(tmp_path):
    runs = [(label, _write_config(tmp_path, label, tmp_path / "no" / label))
            for label in _SCIPY_FREE]
    got = _python(_NO_SCIPY, json.dumps([(_CONFIGS[label]["command"], str(p))
                                         for label, p in runs]))
    assert got == {"codes": [0] * len(runs), "blocked": True}
    for label in _SCIPY_FREE:   # the same runs here, where SciPy imports
        with_scipy = tmp_path / "with" / label
        path = _write_config(tmp_path, label, with_scipy)
        assert cli.main([_CONFIGS[label]["command"], "--config",
                         str(path)]) == 0
        names = sorted(p.name for p in with_scipy.glob("*.csv"))
        assert names, label
        for name in names:
            assert (tmp_path / "no" / label / name).read_bytes() == \
                (with_scipy / name).read_bytes(), (label, name)
