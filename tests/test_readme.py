"""The README's quick tour runs as written."""

import re
from pathlib import Path

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    # the first python block; a RuntimeWarning in it fails, as in the suite
    text = _README.read_text()
    tour = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    assert "rf.lamperti_forward" in tour
    exec(compile(tour, str(_README), "exec"), {})
