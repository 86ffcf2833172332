"""Each demo script runs to completion on small arguments."""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

# arguments that keep a demo to seconds; a demo not listed runs on its defaults
SMALL_ARGS = {
    "contest_vs_baseline.py": ["--grid", "41"],
    "panel_experiment.py": ["--contests", "20", "--players", "8"],
    "prize_skew_sweep.py": ["--grid", "41"],
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, monkeypatch, capsys):
    path = DEMOS / name
    main = runpy.run_path(str(path))["main"]
    monkeypatch.setattr(sys, "argv", [str(path), *SMALL_ARGS.get(name, [])])
    main()
    assert capsys.readouterr().out.strip()
