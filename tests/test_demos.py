"""Smoke test: the walkthrough demos and the README quick start run."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_cleanly(demo):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    readme = (DEMOS.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    lp = namespace["lp"]
    assert lp.redundancy == 18
    assert lp.total_rate == lp.overhead == 0.5
    assert lp.t_main == pytest.approx(lp.t_aux, rel=1e-12)
