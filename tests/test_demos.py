"""Smoke test: the walkthrough demos run to completion.

Demo 04 is left out: its Monte Carlo cross-check takes several seconds,
and the acceptance and simulator tests already cover what it shows.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "demo", ["01_field_and_codec.py", "02_link_budget_chain.py", "03_distance_sweep.py"]
)
def test_demo_exits_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
