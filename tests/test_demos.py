"""Every demo runs to completion and prints its report.

Each demo runs from a copy under ``tmp_path``, because demo 02 writes its
SVG plots next to its own file.
"""

import re
import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, capsys):
    copy = tmp_path / path.name
    shutil.copy(path, copy)
    runpy.run_path(str(copy), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip()
    if path.name.startswith("03_"):
        worst = re.findall(r"worst circuit-vs-matrix deviation over t=0\.\.25: (\S+)", out)
        assert len(worst) == 2
        assert max(float(w) for w in worst) < 1e-12
