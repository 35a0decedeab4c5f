"""Every demo script runs to the end and prints its report."""

import runpy
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["channel_simulation", "coordination_regimes",
                                  "distortion_basics", "rd_tradeoff",
                                  "scheme_faceoff"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMO_DIR / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out.strip()
