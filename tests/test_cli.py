import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from twolane import cli
from twolane.bertable import load_builtin_table, save_ber_table
from twolane.scenario import read_sweep_csv

from conftest import scenario_text

# the two headers README "Output CSVs" documents, sweep then simulate: the CSV contract
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
SWEEP_HEADER, SIM_HEADER = re.findall(
    r"```\n(.+)\n```", README.split("### Output CSVs", 1)[1].split("\n### ", 1)[0]
)


@pytest.fixture
def workdir(tmp_path):
    save_ber_table(load_builtin_table(), tmp_path / "ber.csv")
    (tmp_path / "scn.scn").write_text(
        scenario_text(extra="ber_table = ber.csv"), encoding="utf-8"
    )
    return tmp_path


def test_classify_prints_label(capsys):
    assert cli.main(["classify", "3.2e9"]) == 0
    assert capsys.readouterr().out.strip() == "FSO"


def test_classify_zero(capsys):
    assert cli.main(["classify", "0"]) == 0
    assert capsys.readouterr().out.strip() == "none"


def test_classify_negative_is_validation_error(capsys):
    assert cli.main(["classify", "--", "-5"]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_classify_non_finite_is_validation_error(rate, capsys):
    assert cli.main(["classify", rate]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rate_bps must be finite, got {rate}" in captured.err


def test_plan_single_row_to_stdout(workdir, capsys):
    rc = cli.main(["plan", "--scenario", str(workdir / "scn.scn"), "--d-main-cm", "650"])
    assert rc == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("650.0,")
    assert "aux technology:" in captured.err


def test_plan_defaults_to_sweep_start(workdir, capsys):
    rc = cli.main(["plan", "--scenario", str(workdir / "scn.scn")])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("200.0,")


def test_plan_infeasible_point_is_exit_2(workdir, tmp_path, capsys):
    (tmp_path / "bad.scn").write_text(
        scenario_text(aux_cm=10000, extra="ber_table = ber.csv"), encoding="utf-8"
    )
    rc = cli.main(["plan", "--scenario", str(tmp_path / "bad.scn"), "--d-main-cm", "200"])
    assert rc == 2
    assert "feasibility bound" in capsys.readouterr().err


def test_sweep_writes_csv(workdir, capsys):
    out = workdir / "out.csv"
    rc = cli.main(["sweep", "--scenario", str(workdir / "scn.scn"), "--out", str(out)])
    assert rc == 0
    rows = read_sweep_csv(out)
    assert len(rows) == 37
    assert "wrote 37 rows" in capsys.readouterr().out


def test_sweep_uses_builtin_table(tmp_path, capsys):
    (tmp_path / "scn.scn").write_text(
        scenario_text(extra="ber_table = builtin"), encoding="utf-8"
    )
    out = tmp_path / "out.csv"
    rc = cli.main(["sweep", "--scenario", str(tmp_path / "scn.scn"), "--out", str(out)])
    assert rc == 0
    assert len(read_sweep_csv(out)) == 37


def test_sweep_all_points_infeasible_is_exit_2(workdir, tmp_path, capsys):
    (tmp_path / "bad.scn").write_text(
        scenario_text(aux_cm=1e6, extra=f"ber_table = {workdir / 'ber.csv'}"),
        encoding="utf-8",
    )
    rc = cli.main(["sweep", "--scenario", str(tmp_path / "bad.scn")])
    assert rc == 2
    assert "every sweep point is infeasible" in capsys.readouterr().err


def test_sweep_missing_table_point_is_validation_error(workdir, capsys):
    (workdir / "offgrid.scn").write_text(
        scenario_text(d_start=225, d_stop=225, extra="ber_table = ber.csv"),
        encoding="utf-8",
    )
    rc = cli.main(["sweep", "--scenario", str(workdir / "offgrid.scn")])
    assert rc == 1
    assert "no table point" in capsys.readouterr().err


def test_sweep_interpolate_flag_allows_offgrid(workdir, capsys):
    (workdir / "offgrid.scn").write_text(
        scenario_text(d_start=225, d_stop=225, extra="ber_table = ber.csv"),
        encoding="utf-8",
    )
    rc = cli.main(
        ["sweep", "--scenario", str(workdir / "offgrid.scn"), "--interpolate"]
    )
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("225.0,")


def test_simulate_writes_csv(workdir):
    out = workdir / "sim.csv"
    rc = cli.main(
        [
            "simulate",
            "--scenario",
            str(workdir / "scn.scn"),
            "--out",
            str(out),
            "--generations",
            "20",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SIM_HEADER
    assert len(lines) == 38


def test_simulate_negative_seed_is_validation_error(workdir, capsys):
    rc = cli.main(["simulate", "--scenario", str(workdir / "scn.scn"), "--seed", "-1"])
    assert rc == 1
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_simulate_seed_past_64_bits_is_validation_error(workdir, capsys):
    rc = cli.main(
        ["simulate", "--scenario", str(workdir / "scn.scn"), "--seed", str(2**64)]
    )
    assert rc == 1
    assert "seed must be < 2**64, got 18446744073709551616" in capsys.readouterr().err


def test_simulate_bit_level_mode(workdir, capsys):
    (workdir / "one.scn").write_text(
        scenario_text(d_start=650, d_stop=650, extra="ber_table = ber.csv"),
        encoding="utf-8",
    )
    rc = cli.main(
        [
            "simulate",
            "--scenario",
            str(workdir / "one.scn"),
            "--generations",
            "20",
            "--mode",
            "bit-level",
        ]
    )
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_missing_scenario_file_is_validation_error(workdir, capsys):
    # a directory raises IsADirectoryError, an OSError but no FileNotFoundError
    for args in (
        ["--scenario", "/nonexistent/path.scn"],
        ["--scenario", str(workdir)],
        ["--scenario", str(workdir / "scn.scn"), "--ber-table", str(workdir)],
    ):
        assert cli.main(["sweep", *args]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_bad_ber_table_is_validation_error(workdir, capsys):
    (workdir / "bad.csv").write_text("garbage\n", encoding="utf-8")
    rc = cli.main(
        [
            "sweep",
            "--scenario",
            str(workdir / "scn.scn"),
            "--ber-table",
            str(workdir / "bad.csv"),
        ]
    )
    assert rc == 1
    assert "header" in capsys.readouterr().err


# ------------------------------------------------------------------ cold start

SRC = Path(__file__).resolve().parent.parent / "src"
SHIPPED = SRC.parent / "scenarios" / "channel_b_16psk.scn"


def fresh_python(code: str, cwd) -> dict:
    """Run ``code`` in a new interpreter importing twolane from src; its last line is JSON."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SHIPPED)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_plan_sweep_and_classify_never_import_numpy(tmp_path):
    code = """
import json, sys
import twolane.cli as cli
scn = sys.argv[1]
seen = {"import": "numpy" in sys.modules}
for argv in (
    ["plan", "--scenario", scn, "--out", "plan.csv"],
    ["sweep", "--scenario", scn, "--out", "sweep.csv"],
    ["classify", "1e9"],
    ["simulate", "--scenario", scn, "--generations", "1", "--out", "sim.csv"],
):
    assert cli.main(argv) == 0, argv
    seen[argv[0]] = "numpy" in sys.modules
print(json.dumps(seen))
"""
    assert fresh_python(code, tmp_path) == {
        "import": False,
        "plan": False,
        "sweep": False,
        "classify": False,
        "simulate": True,
    }


def test_package_root_loads_the_numpy_backed_submodules_on_access(tmp_path):
    code = """
import json, sys
import twolane
seen = {"numpy": "numpy" in sys.modules}
seen.update((name, getattr(twolane, name).__name__) for name in ("sim", "codec", "gf256"))
try:
    twolane.nope
except AttributeError as exc:
    seen["nope"] = str(exc)
print(json.dumps(seen))
"""
    assert fresh_python(code, tmp_path) == {
        "numpy": False,
        "sim": "twolane.sim",
        "codec": "twolane.codec",
        "gf256": "twolane.gf256",
        "nope": "module 'twolane' has no attribute 'nope'",
    }
