"""Byte-for-byte guard on the CSVs the shipped scenarios produce.

Each case runs the CLI on a file under ``scenarios/`` and compares the
output with ``tests/golden/<scenario>.<golden>.csv``. The golden files
are the CLI's own output, written with the same arguments plus ``--out``,
so a deliberate change in output regenerates them the same way and
declares it in CHANGES.md. Every grid distance of the shipped scenarios
is a tabulated BER-table distance, so the interpolated sweep must match
the exact one.
"""

from pathlib import Path

import pytest

from twolane import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
SCENARIOS = ("channel_b_16psk", "channel_b_16psk_equal_aux")
CASES = {  # case: (CLI arguments, golden file)
    "sweep": (["sweep"], "sweep"),
    "sweep-interpolate": (["sweep", "--interpolate"], "sweep"),
    "simulate-analytic-erasure": (
        ["simulate", "--generations", "20", "--mode", "analytic-erasure"],
        "simulate-analytic-erasure",
    ),
    "simulate-bit-level": (
        ["simulate", "--generations", "20", "--mode", "bit-level"],
        "simulate-bit-level",
    ),
}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_shipped_scenario_csv_is_byte_identical(scenario, case, tmp_path):
    args, golden = CASES[case]
    out = tmp_path / "out.csv"
    scn = ROOT / "scenarios" / f"{scenario}.scn"
    assert cli.main(args + ["--scenario", str(scn), "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{scenario}.{golden}.csv").read_bytes()
