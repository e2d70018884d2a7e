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
ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
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


@pytest.mark.parametrize("scenario", ["channel_b_16psk", "channel_b_16psk_equal_aux"])
def test_plan_is_a_one_point_sweep(scenario, capsys):
    # reads the golden sweep, writes none: plan at a grid distance prints that golden row
    header, *rows = (ROOT / "tests" / "golden" / f"{scenario}.sweep.csv").read_text(
        encoding="utf-8"
    ).splitlines()
    scn = str(ROOT / "scenarios" / f"{scenario}.scn")
    for row in rows:
        assert cli.main(["plan", "--scenario", scn, "--d-main-cm", row.split(",")[0]]) == 0
        assert capsys.readouterr().out == f"{header}\n{row}\n"


def test_plan_infeasible_point_is_exit_2(workdir, tmp_path, capsys):
    (tmp_path / "bad.scn").write_text(
        scenario_text(aux_cm=10000, extra="ber_table = ber.csv"), encoding="utf-8"
    )
    rc = cli.main(["plan", "--scenario", str(tmp_path / "bad.scn"), "--d-main-cm", "200"])
    assert rc == 2
    assert capsys.readouterr() == (
        "",
        "warning: d_main=200.0 cm skipped: auxiliary distance 100.0 m is not below the "
        "feasibility bound 2.1125 m\nerror: every sweep point is infeasible\n",
    )


@pytest.mark.parametrize(
    "d, message",
    [("nan", "d_main_start_cm must be finite, got nan"), ("-50", "d_main_start_cm must be >= 0")],
)
def test_plan_bad_distance_is_validation_error(workdir, d, message, capsys):
    rc = cli.main(["plan", "--scenario", str(workdir / "scn.scn"), "--d-main-cm", d])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_sweep_without_a_ber_table_is_validation_error(tmp_path, capsys):
    (tmp_path / "scn.scn").write_text(scenario_text(), encoding="utf-8")
    assert cli.main(["sweep", "--scenario", str(tmp_path / "scn.scn")]) == 1
    assert capsys.readouterr() == (
        "", "error: no BER table: give --ber-table or a ber_table scenario key\n"
    )


@pytest.mark.parametrize(
    "code_rate, main_rate",
    [(0.5, 5e-324), (0.5, 1e-320), (1.0, 1e308)],
    # what the sweep did before main_rate_bps had this rule
    ids=["zero-division", "infinite-T_main", "nan-C_aux"],
)
def test_sweep_rejects_a_main_rate_whose_plan_is_not_finite(workdir, code_rate, main_rate, capsys):
    scn, out = workdir / "rate.scn", workdir / "out.csv"
    text = scenario_text(main_rate=main_rate, extra="ber_table = ber.csv")
    scn.write_text(text.replace("fec_code_rate = 0.8", f"fec_code_rate = {code_rate}"), "utf-8")
    assert cli.main(["sweep", "--scenario", str(scn), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "",
        f"error: {scn}: main_rate_bps must keep lane times and auxiliary rates finite, "
        f"got {main_rate!r}\n",
    )
    assert not out.exists()


FAR_POINT_WARNING = (
    "warning: d_main=1e+299 cm skipped: auxiliary lane required: redundancy 18 > 0 but its "
    "matched rate is 0 at main distance 1e+297 m\n"
)


@pytest.mark.parametrize("command", ["sweep", "simulate", "plan"])
def test_a_point_whose_aux_rate_underflows_is_a_row_error(tmp_path, command, capsys):
    # at 1e299 cm, R_F*C_main*(d_main - d_aux) overflows, so the matched rate is 0 though
    # R = 18: the point is skipped with a warning naming it, and the 650 cm row is written
    (tmp_path / "ber.csv").write_text(
        "channel_id,modulation,distance_cm,p_e\nB,16PSK,650,0.2\nB,16PSK,1e299,0.2\n", "utf-8"
    )
    scn, out = tmp_path / "far.scn", tmp_path / "out.csv"
    scn.write_text(
        scenario_text(d_start=650, d_stop=1e299, d_step=1e299, extra="ber_table = ber.csv"),
        "utf-8",
    )
    args = [command, "--scenario", str(scn), "--out", str(out)]
    if command == "plan":  # a one-point sweep of the far point alone: every point skipped
        assert cli.main([*args, "--d-main-cm", "1e299"]) == 2
        infeasible = "error: every sweep point is infeasible\n"
        assert capsys.readouterr() == ("", FAR_POINT_WARNING + infeasible)
        assert not out.exists()
        return
    if command == "simulate":
        args += ["--generations", "3"]
    assert cli.main(args) == 0
    assert capsys.readouterr() == (f"wrote 1 rows to {out}\n", FAR_POINT_WARNING)
    lines = out.read_text("utf-8").splitlines()
    assert len(lines) == 2 and lines[1].startswith("650.0,0.2,")


def test_sweep_writes_csv(workdir, capsys):
    out = workdir / "out.csv"
    rc = cli.main(["sweep", "--scenario", str(workdir / "scn.scn"), "--out", str(out)])
    assert rc == 0
    rows = read_sweep_csv(out)
    assert len(rows) == 37
    assert "wrote 37 rows" in capsys.readouterr().out


def test_sweep_over_a_longer_file_writes_the_golden_bytes(tmp_path):
    golden = ROOT / "tests" / "golden"
    out = tmp_path / "sweep.csv"
    out.write_bytes(b"".join(p.read_bytes() for p in sorted(golden.glob("*.csv"))))
    scn = str(ROOT / "scenarios" / "channel_b_16psk.scn")
    assert cli.main(["sweep", "--scenario", scn, "--out", str(out)]) == 0
    assert out.read_bytes() == (golden / "channel_b_16psk.sweep.csv").read_bytes()


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
    assert "seed must be an integer >= 0, got -1" in capsys.readouterr().err


def test_simulate_seed_past_64_bits_is_validation_error(workdir, capsys):
    rc = cli.main(
        ["simulate", "--scenario", str(workdir / "scn.scn"), "--seed", str(2**64)]
    )
    assert rc == 1
    assert "seed must be < 2**64, got 18446744073709551616" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--scenario", "scn.scn", "--generations", "abc"],
        ["sweep"],
        ["bogus"],
        [],
    ],
)
def test_usage_error_is_exit_1_not_the_infeasible_code(argv, capsys):
    assert cli.main(argv) == 1
    assert "usage: twolane" in capsys.readouterr().err


def test_empty_out_is_rejected_not_replaced_by_the_scenario_output(workdir, capsys):
    (workdir / "out.scn").write_text(
        scenario_text(extra=f"ber_table = ber.csv\noutput = {workdir / 'fromscn.csv'}"),
        encoding="utf-8",
    )
    assert cli.main(["sweep", "--scenario", str(workdir / "out.scn"), "--out", ""]) == 1
    assert "argument --out: must not be empty" in capsys.readouterr().err
    assert not (workdir / "fromscn.csv").exists()


def test_empty_ber_table_is_rejected_not_replaced_by_the_scenario_table(workdir, capsys):
    rc = cli.main(["sweep", "--scenario", str(workdir / "scn.scn"), "--ber-table", ""])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == "" and "argument --ber-table: must not be empty" in err


def test_help_is_exit_0(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["simulate", "--help"]) == 0
    assert "--generations" in capsys.readouterr().out


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
