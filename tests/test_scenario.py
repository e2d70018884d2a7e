import dataclasses
import itertools
import math
import os
import re
import stat
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolane import codec, planner, scenario, sim
from twolane.bertable import BerTableError, load_builtin_table, parse_ber_table
from twolane.scenario import (
    ScenarioError,
    SweepRow,
    classify_aux_technology,
    parse_scenario,
    read_sweep_csv,
    simulate,
    sweep,
    write_sim_csv,
    write_sweep_csv,
)

from conftest import LIGHT_SPEED, not_full_rank_rate, scenario_text


def flat_table(p_e=0.2, distances=(200, 650, 2000), channel="B", modulation="16PSK"):
    rows = "\n".join(f"{channel},{modulation},{d},{p_e}" for d in distances)
    return parse_ber_table(f"channel_id,modulation,distance_cm,p_e\n{rows}\n")


# -------------------------------------------------------------------- parsing


def test_parse_scenario_full():
    sc = parse_scenario(scenario_text())
    assert sc.k == 30 and sc.s == 8 and sc.code_rate == 0.8
    assert sc.channel == "B" and sc.modulation == "16PSK"
    assert sc.main_rate == 8e11
    assert sc.aux_policy == "fixed" and sc.aux_distance_cm == 150
    assert sc.seed == 7
    assert len(sc.distances_cm()) == 37


def test_parse_scenario_comments_and_blank_lines():
    text = "# heading\n\n" + scenario_text() + "\n# trailing\n"
    sc = parse_scenario(text)
    assert sc.k == 30


def test_parse_scenario_baud_form():
    text = scenario_text().replace(
        "main_rate_bps = 800000000000.0", "baud_rate = 25e9\nbits_per_symbol = 4"
    )
    sc = parse_scenario(text)
    assert sc.main_rate == 1e11


def test_parse_scenario_rejects_both_rate_forms():
    text = scenario_text(extra="baud_rate = 25e9")
    with pytest.raises(ScenarioError, match="not both"):
        parse_scenario(text)


def test_parse_scenario_rejects_missing_rate():
    text = "\n".join(
        ln for ln in scenario_text().splitlines() if not ln.startswith("main_rate_bps")
    )
    with pytest.raises(ScenarioError, match="rate missing"):
        parse_scenario(text)


def test_parse_scenario_rejects_missing_keys():
    with pytest.raises(ScenarioError, match="missing keys"):
        parse_scenario("K = 30\n")


def test_parse_scenario_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ScenarioError, match="unknown key"):
        parse_scenario(scenario_text(extra="bogus = 1"))
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(scenario_text(extra="K = 31"))


def test_parse_scenario_fixed_policy_needs_distance():
    with pytest.raises(ScenarioError, match="requires d_aux_cm"):
        parse_scenario(scenario_text(aux_policy="fixed", aux_cm=None))


def test_parse_scenario_rejects_bad_grid():
    with pytest.raises(ScenarioError, match="step"):
        parse_scenario(scenario_text(d_step=0))
    with pytest.raises(ScenarioError, match="stop"):
        parse_scenario(scenario_text(d_start=500, d_stop=200))


@pytest.mark.parametrize(
    "old,new,message",
    [
        ("K = 30", "K = 30.7", "key 'K': not a whole number: '30.7'"),
        ("s = 8", "s = 8.5", "key 's': not a whole number: '8.5'"),
        (
            "main_rate_bps = 800000000000.0",
            "baud_rate = 25e9\nbits_per_symbol = 4.5",
            "key 'bits_per_symbol': not a whole number: '4.5'",
        ),
        ("seed = 7", "seed = 1.9", "key 'seed': not a whole number: '1.9'"),
        ("seed = 7", "seed = -1", "seed must be an integer >= 0, got -1"),
        ("seed = 7", f"seed = {2**64}", f"seed must be < 2**64, got {2**64}"),
        ("K = 30", "K = abc", "key 'K': not a finite number: 'abc'"),
        ("main_rate_bps = 800000000000.0", "main_rate_bps = inf", "key 'main_rate_bps': not a finite"),
        ("main_rate_bps = 800000000000.0", "main_rate_bps = nan", "key 'main_rate_bps': not a finite"),
        ("d_main_step_cm = 50", "d_main_step_cm = nan", "key 'd_main_step_cm': not a finite"),
        ("fec_code_rate = 0.8", "fec_code_rate = -inf", "key 'fec_code_rate': not a finite"),
        ("d_aux_cm = 150", "d_aux_cm = inf", "key 'd_aux_cm': not a finite"),
        # the FecParams and LinkParams rules, at parse time and naming the scenario key
        ("K = 30", "K = 0", "K must be an integer >= 1, got 0"),
        ("s = 8", "s = 0", "s must be an integer >= 1, got 0"),
        ("fec_code_rate = 0.8", "fec_code_rate = 1.5", "fec_code_rate must be in (0, 1]"),
        ("fec_code_rate = 0.8", "fec_code_rate = 0", "fec_code_rate must be in (0, 1]"),
        ("d_aux_cm = 150", "d_aux_cm = -5", "d_aux_cm must be >= 0"),
        ("d_main_start_cm = 200", "d_main_start_cm = -50", "d_main_start_cm must be >= 0"),
        ("main_rate_bps = 800000000000.0", "main_rate_bps = 0", "main_rate_bps must be > 0"),
        (
            "main_rate_bps = 800000000000.0",
            "main_rate_bps = 5e-324",
            "main_rate_bps must keep lane times and auxiliary rates finite, got 5e-324",
        ),
        (
            "main_rate_bps = 800000000000.0",
            "baud_rate = 0\nbits_per_symbol = 4",
            "baud_rate must be > 0",
        ),
        (
            "main_rate_bps = 800000000000.0",
            "baud_rate = 1e308\nbits_per_symbol = 8",
            "baud_rate * bits_per_symbol must be finite, got inf",
        ),
        (
            "d_main_step_cm = 50",
            "d_main_step_cm = 0.0001",
            "d_main_step_cm = 0.0001 gives 18000001 grid points, cap 100000",
        ),
        ("K = 30", "K 30", "line 1: expected 'key = value'"),
    ],
    ids=[
        "fractional-K",
        "fractional-s",
        "fractional-bits_per_symbol",
        "fractional-seed",
        "negative-seed",
        "seed-past-64-bits",
        "non-numeric-K",
        "inf-rate",
        "nan-rate",
        "nan-step",
        "inf-code-rate",
        "inf-aux-distance",
        "zero-K",
        "zero-s",
        "code-rate-above-1",
        "zero-code-rate",
        "negative-aux-distance",
        "negative-start",
        "zero-rate",
        "subnormal-rate",
        "zero-baud-rate",
        "overflowing-baud-rate",
        "oversized-grid",
        "no-equals-sign",
    ],
)
def test_parse_scenario_rejects_bad_number(old, new, message):
    lines = scenario_text().splitlines()
    text = "\n".join(new if line == old else line for line in lines)
    assert old in lines
    with pytest.raises(ScenarioError, match=f"^bad\\.scn: {re.escape(message)}"):
        parse_scenario(text, source="bad.scn")


@pytest.mark.parametrize("key", ["output", "seed"])
def test_parse_scenario_rejects_an_empty_value(key):
    # an empty output once meant stdout, an empty ber_table a missing file ''
    text = scenario_text(extra=f"{key} =").replace("seed = 7\n", "")
    with pytest.raises(ScenarioError, match=f"^bad\\.scn: key '{key}': empty value$"):
        parse_scenario(text, source="bad.scn")


def test_parse_scenario_keeps_a_large_seed_exact():
    # 2**64 - 1 is not a float; read through one it would round up to 2**64
    sc = parse_scenario(scenario_text().replace("seed = 7", "seed = 18446744073709551615"))
    assert sc.seed == 2**64 - 1


def test_parse_scenario_reports_first_bad_key_in_file_order():
    text = scenario_text().replace("K = 30", "K = abc").replace(
        "main_rate_bps = 800000000000.0", "main_rate_bps = nan"
    )
    with pytest.raises(ScenarioError, match="^bad\\.scn: key 'K': not a finite number: 'abc'$"):
        parse_scenario(text, source="bad.scn")


def test_equal_to_main_policy_rejects_aux_distance():
    message = "d_aux_cm is only allowed with d_aux_policy 'fixed'"
    text = scenario_text(aux_policy="equal_to_main", extra="d_aux_cm = 150")
    with pytest.raises(ScenarioError, match=f"^bad\\.scn: {re.escape(message)}$"):
        parse_scenario(text, source="bad.scn")
    sc = parse_scenario(scenario_text())
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(sc, aux_policy="equal_to_main")


def test_parse_scenario_accepts_whole_float():
    text = scenario_text().replace("K = 30", "K = 30.0").replace("seed = 7", "seed = 7e0")
    sc = parse_scenario(text)
    assert sc.k == 30 and isinstance(sc.k, int) and sc.seed == 7


@pytest.mark.parametrize(
    "field,value,key",
    [
        ("d_start_cm", math.nan, "d_main_start_cm"),
        ("d_step_cm", math.nan, "d_main_step_cm"),
        ("d_stop_cm", math.inf, "d_main_stop_cm"),
        ("d_start_cm", -math.inf, "d_main_start_cm"),
    ],
    ids=["d_start_cm-nan", "d_step_cm-nan", "d_stop_cm-inf", "d_start_cm--inf"],
)
def test_scenario_rejects_non_finite_distance(field, value, key):
    sc = parse_scenario(scenario_text())
    with pytest.raises(ScenarioError, match=f"^{key} must be finite"):
        dataclasses.replace(sc, **{field: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("k", 0, "K must be an integer >= 1, got 0"),
        ("code_rate", 1.5, "fec_code_rate must be in (0, 1]"),
        ("main_rate", math.inf, "main_rate_bps must be finite, got inf"),
        ("d_start_cm", -50.0, "d_main_start_cm must be >= 0"),
        ("aux_distance_cm", -1.0, "d_aux_cm must be >= 0"),
        ("aux_policy", "nearest", "d_aux_policy must be one of ('fixed', 'equal_to_main')"),
    ],
)
def test_code_built_scenario_names_the_key(field, value, message):
    sc = parse_scenario(scenario_text())
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(sc, **{field: value})


def test_grid_size_cap():
    sc = parse_scenario(scenario_text(d_start=0, d_stop=99_999, d_step=1))
    assert sc.grid_size() == scenario.MAX_GRID_POINTS == len(sc.distances_cm())
    with pytest.raises(ScenarioError, match="gives 100001 grid points"):
        dataclasses.replace(sc, d_stop_cm=100_000)
    # a span over the step that overflows is rejected, not raised as OverflowError
    with pytest.raises(ScenarioError, match="gives inf grid points"):
        dataclasses.replace(sc, d_stop_cm=1e308, d_step_cm=1e-10)


def test_single_point_grid():
    sc = parse_scenario(scenario_text(d_start=650, d_stop=650))
    assert sc.distances_cm() == [650.0]


def test_grid_keeps_stop_lost_to_float_noise():
    # 0.3 / 0.1 == 2.9999999999999996; a plain floor would drop the stop point
    sc = parse_scenario(scenario_text(d_start=0, d_stop=0.3, d_step=0.1))
    assert len(sc.distances_cm()) == 4


# ---------------------------------------------------------------------- sweep


def test_sweep_single_point_matches_plan_chain():
    sc = parse_scenario(scenario_text(d_start=650, d_stop=650))
    rows, errors = sweep(sc, flat_table(p_e=0.2))
    assert not errors
    (row,) = rows
    assert row.p_e == 0.2
    assert row.redundancy == 18
    assert row.total_rate == pytest.approx(0.5, rel=1e-12)
    assert row.overhead == pytest.approx(0.5, rel=1e-12)
    assert row.p_residual_symbol == pytest.approx(0.5821232558667687, rel=1e-12)


def test_sweep_all_below_threshold_needs_no_redundancy():
    sc = parse_scenario(scenario_text(d_start=200, d_stop=2000, d_step=900))
    rows, errors = sweep(sc, flat_table(p_e=0.01, distances=(200, 1100, 2000)))
    assert not errors
    assert all(r.redundancy == 0 for r in rows)
    assert all(r.aux_rate_bps == 0.0 for r in rows)
    assert all(r.t_aux_s == 0.0 for r in rows)


def test_sweep_records_row_errors_and_continues():
    # a 100 m auxiliary lane is infeasible until d_main approaches 100 m
    sc = parse_scenario(
        scenario_text(d_start=200, d_stop=2000, d_step=900, aux_cm=10000)
    )
    rows, errors = sweep(sc, flat_table(p_e=0.2, distances=(200, 1100, 2000)))
    assert len(rows) + len(errors) == 3
    assert errors and all("feasibility bound" in e.message for e in errors)


def test_sweep_rows_are_order_independent():
    sc = parse_scenario(scenario_text())
    table = load_builtin_table()
    rows, _ = sweep(sc, table)
    by_distance = {r.d_main_cm: r for r in rows}
    for d in reversed(sc.distances_cm()):
        (row,), _ = sweep(dataclasses.replace(sc, d_start_cm=d, d_stop_cm=d), table)
        assert row == by_distance[d]


def test_sweep_redundancy_consistent_with_residual_ser():
    sc = parse_scenario(scenario_text())
    rows, _ = sweep(sc, load_builtin_table())
    for r in rows:
        assert r.redundancy == max(0, math.ceil(r.p_residual_symbol * 30 - 1e-9))


def test_sweep_equal_distance_policy_rate_ratio():
    sc = parse_scenario(scenario_text(aux_policy="equal_to_main", aux_cm=None))
    rows, errors = sweep(sc, load_builtin_table())
    assert not errors
    for r in rows:
        if r.redundancy > 0:
            assert r.aux_rate_bps == pytest.approx(
                8e11 * r.redundancy / 30, rel=1e-12
            )


def test_sweep_csv_round_trip(tmp_path):
    sc = parse_scenario(scenario_text())
    rows, _ = sweep(sc, load_builtin_table())
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    text = path.read_text(encoding="utf-8")
    # the README "Output CSVs" sweep header, spelled out: the contract, not the writer's own tuple
    assert text.splitlines()[0] == "d_main_cm,p_e,P_b,P_s,R,R_T,theta,C_aux_bps,T_main_s,T_aux_s"
    assert "\r" not in text
    assert read_sweep_csv(path) == rows


def test_sweep_csv_of_numpy_values_reads_back(tmp_path):
    # an R computed with numpy is still an integer column: "3", never "3.0"
    rows, _ = sweep(parse_scenario(scenario_text()), load_builtin_table())
    to_numpy = {int: np.int64, float: np.float64}
    as_numpy = [SweepRow(*(to_numpy[type(v)](v) for v in dataclasses.astuple(r))) for r in rows]
    write_sweep_csv(rows, tmp_path / "python.csv")
    write_sweep_csv(as_numpy, tmp_path / "numpy.csv")
    assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
    assert read_sweep_csv(tmp_path / "numpy.csv") == rows
    assert scenario._format(np.int64(3)) == "3" and scenario._format(np.uint8(255)) == "255"
    assert scenario._format(True) == "1.0"  # a bool is not an integer column value


def _written(rows, tmp_path):
    fresh = tmp_path / "fresh.csv"
    write_sweep_csv(rows, fresh)
    return fresh.read_bytes()


def test_sweep_csv_rewrites_a_longer_file_in_place(tmp_path):
    # exactly the new bytes, no tail of the old file, on the same inode with the same mode
    rows, _ = sweep(parse_scenario(scenario_text()), load_builtin_table())
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    path.chmod(0o640)
    before = path.stat()
    write_sweep_csv(rows[:3], path)
    after = path.stat()
    assert path.read_bytes() == _written(rows[:3], tmp_path)
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == stat.S_IMODE(before.st_mode) == 0o640


def test_sweep_csv_to_a_device_is_written_and_not_cut():
    # O_TRUNC never touched a device; truncating os.devnull would raise EINVAL
    rows, _ = sweep(parse_scenario(scenario_text()), load_builtin_table())
    write_sweep_csv(rows, os.devnull)


def test_a_row_that_fails_to_format_leaves_the_rows_before_it_and_no_old_tail(tmp_path):
    rows, _ = sweep(parse_scenario(scenario_text()), load_builtin_table())
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    bad = dataclasses.replace(rows[2], p_e="not a number")
    with pytest.raises(ValueError, match="not a number"):
        write_sweep_csv([*rows[:2], bad, *rows[3:]], path)
    assert path.read_bytes() == _written(rows[:2], tmp_path)


def test_sweep_csv_through_a_symlink_rewrites_the_target(tmp_path):
    rows, _ = sweep(parse_scenario(scenario_text()), load_builtin_table())
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    write_sweep_csv(rows, target)
    link.symlink_to(target.name)
    write_sweep_csv(rows[:3], link)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == _written(rows[:3], tmp_path)


finite = st.floats(allow_nan=False, allow_infinity=False)
sweep_rows = st.builds(
    SweepRow,
    **{f.name: finite for f in dataclasses.fields(SweepRow) if f.name != "redundancy"},
    redundancy=st.integers(min_value=0),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(sweep_rows, max_size=5))
def test_sweep_csv_write_read_identity(rows):
    # a tempfile directory, not tmp_path: hypothesis reruns the body per example
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sweep.csv")
        write_sweep_csv(rows, path)
        assert read_sweep_csv(path) == rows


@pytest.mark.parametrize(
    "row,message",
    [
        ("650.0,0.2,0.1", "expected 10 fields, got 3"),
        ("650.0,0.2,0.1,0.5,16,0.5,0.5,1e9,1e-9,1e-9,7", "expected 10 fields, got 11"),
        ("650.0,abc,0.1,0.5,16,0.5,0.5,1e9,1e-9,1e-9", "'abc'"),
        ("650.0,0.2,0.1,0.5,1.5,0.5,0.5,1e9,1e-9,1e-9", "'1.5'"),
        ("650.0,0.2,0.1,0.5,-3,0.5,0.5,1e9,1e-9,1e-9", "R must be >= 0 and every value finite"),
        ("650.0,nan,0.1,0.5,16,0.5,0.5,1e9,1e-9,1e-9", "R must be >= 0 and every value finite"),
        ("650.0,0.2,0.1,0.5,16,0.5,0.5,inf,1e-9,1e-9", "R must be >= 0 and every value finite"),
        ("650.0,0.2,0.1,0.5," + "9" * 400 + ",0.5,0.5,1e9,1e-9,1e-9", "too large"),
    ],
    ids=["short", "extra-field", "non-numeric", "fractional-R", "negative-R", "nan", "inf", "huge-R"],
)
def test_read_sweep_csv_rejects_malformed_row(tmp_path, row, message):
    rows, _ = sweep(parse_scenario(scenario_text()), load_builtin_table())
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows[:2], path)
    with open(path, "a", encoding="utf-8") as f:
        f.write(row + "\n")
    with pytest.raises(ScenarioError, match=f"line 4: .*{re.escape(message)}"):
        read_sweep_csv(path)


def test_read_sweep_csv_rejects_a_simulate_csv(tmp_path):
    rows, _ = simulate(parse_scenario(scenario_text(d_start=650, d_stop=650)), flat_table(), 1)
    path = tmp_path / "sim.csv"
    write_sim_csv(rows, path)
    with pytest.raises(ScenarioError, match=f"^{re.escape(str(path))}: not a sweep CSV$"):
        read_sweep_csv(path)


# ------------------------------------------------------------------- classify


@pytest.mark.parametrize(
    "rate,label",
    [
        (0.0, "none"),
        (1e6, "WLAN-802.11n"),
        (600e6, "WLAN-802.11n"),
        (600e6 + 1, "FSO"),
        (3.2e9, "FSO"),
        (10e9, "FSO"),
        (4.217e10, "fiber"),
        (100e9, "fiber"),
        (1.079e12, "THz"),
    ],
)
def test_classify_aux_technology(rate, label):
    assert classify_aux_technology(rate) == label


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        classify_aux_technology(-1.0)


# ----------------------------------------------------------------- simulation


def test_simulate_lossless_point():
    sc = parse_scenario(scenario_text(d_start=650, d_stop=650))
    rows, errors = simulate(sc, flat_table(p_e=0.0), generations=50)
    assert not errors
    (row,) = rows
    assert row.decode_failure_rate == 0.0
    assert row.observed_erasure_rate == 0.0
    assert row.redundancy == 0
    assert row.analytic_failure_rate == 0.0


def test_simulate_deterministic_csv_bytes(tmp_path):
    sc = parse_scenario(scenario_text(d_start=650, d_stop=750))
    table = flat_table(p_e=0.2, distances=(650, 700, 750))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows1, _ = simulate(sc, table, generations=100, seed=42)
    rows2, _ = simulate(sc, table, generations=100, seed=42)
    write_sim_csv(rows1, out1)
    write_sim_csv(rows2, out2)
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_rejects_negative_seed_override():
    sc = parse_scenario(scenario_text(d_start=650, d_stop=650))
    with pytest.raises(ScenarioError, match="seed must be an integer >= 0, got -1"):
        simulate(sc, flat_table(), generations=1, seed=-1)


def test_simulate_rejects_fractional_generations_with_every_point_infeasible():
    scn = os.path.join(os.path.dirname(__file__), "..", "scenarios", "channel_b_16psk.scn")
    sc = dataclasses.replace(scenario.load_scenario(scn), aux_distance_cm=1e12)
    table = load_builtin_table()
    rows, errors = sweep(sc, table)
    assert rows == [] and len(errors) == 37
    with pytest.raises(ValueError, match=r"^generations must be an integer >= 1, got 2\.5$"):
        simulate(sc, table, 2.5)


def test_simulate_rejects_unknown_mode_with_every_point_infeasible():
    scn = os.path.join(os.path.dirname(__file__), "..", "scenarios", "channel_b_16psk.scn")
    sc = dataclasses.replace(scenario.load_scenario(scn), aux_distance_cm=1e12)
    with pytest.raises(ValueError, match=r"^error_mode must be one of \("):
        simulate(sc, load_builtin_table(), 3, mode="bogus")


def test_simulate_failure_rate_near_analytic_tail():
    sc = parse_scenario(scenario_text(d_start=650, d_stop=650, seed=9))
    # p_e chosen so the derived plan lands at a small redundancy with a
    # visible failure tail: residual_ser ~ 0.0664 -> R = 2
    rows, _ = simulate(sc, flat_table(p_e=0.105), generations=3000)
    (row,) = rows
    expected = row.analytic_failure_rate + not_full_rank_rate(30, row.p_residual_symbol, 2)
    sigma = math.sqrt(expected * (1 - expected) / 3000)
    assert row.redundancy == 2
    assert abs(row.decode_failure_rate - expected) <= 3 * sigma


def test_simulate_rejects_a_seed_override_past_64_bits():
    sc = parse_scenario(scenario_text(d_start=650, d_stop=650))
    with pytest.raises(ScenarioError, match=r"^seed must be < 2\*\*64, got 18446744073709551616$"):
        simulate(sc, flat_table(), generations=1, seed=2**64)


def test_simulate_seed_8_does_not_replay_seed_7_one_distance_over(monkeypatch):
    """Distance i draws from spawn key (i, ...) of the seed, not from seed + i."""
    runs = []  # per distance: the native payloads of every encode call
    real_run = scenario.run
    monkeypatch.setattr(scenario, "run", lambda cfg: runs.append([]) or real_run(cfg))
    monkeypatch.setattr(
        sim, "encode", lambda gen, coeffs: runs[-1].append(gen.symbols) or codec.encode(gen, coeffs)
    )
    sc = parse_scenario(scenario_text(d_start=650, d_stop=700))
    table = flat_table(distances=(650, 700))
    simulate(sc, table, generations=2, seed=8)
    seed_8 = runs[:]
    runs.clear()
    simulate(sc, table, generations=2, seed=7)
    assert len(seed_8) == len(runs) == 2
    assert seed_8[0] != runs[1]


# mean_lane_skew_s is computed here, from the plan's lane times


def test_simulate_skew_zero_with_matched_aux_rate():
    rows, _ = simulate(parse_scenario(scenario_text()), load_builtin_table(), generations=1)
    assert len(rows) == 37 and any(row.redundancy == 0 for row in rows)
    assert all(row.mean_lane_skew_s <= 1e-12 for row in rows)


def test_simulate_skew_matches_analytic_for_other_aux_rate(monkeypatch):
    def off_rate_plan(link):  # T_aux = R*s/(R_F*C_aux) + d_aux/c at twice the matched rate
        lp = planner.plan(link)
        rate = lp.aux_rate * 2
        t_aux = lp.redundancy * link.fec.s / (link.fec.code_rate * rate) + link.aux_distance / LIGHT_SPEED
        return dataclasses.replace(lp, aux_rate=rate, t_aux=t_aux)

    monkeypatch.setattr(scenario, "plan", off_rate_plan)
    sc = parse_scenario(scenario_text(d_start=650, d_stop=650))
    (row,), _ = simulate(sc, flat_table(), generations=1)
    lp = off_rate_plan(sc.link_for(650, 0.2))
    assert row.redundancy == lp.redundancy > 0
    assert row.mean_lane_skew_s == pytest.approx(abs(lp.t_main - lp.t_aux), abs=1e-12)
    assert row.mean_lane_skew_s > 1e-12


# ------------------------------------------------------- every grid point a row or an error

positive = st.floats(min_value=5e-324, allow_infinity=False)  # every positive finite float
# the whole range by decade, as often near 1 as near the ends
by_decade = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, 307))
anywhere = st.one_of(st.just(0.0), positive, by_decade)
# mostly in [0, 1], where 0.2 needs redundancy at K = 30, s = 8 and R_F = 0.8
error_rates = st.one_of(
    st.floats(0.0, 1.0), st.just(0.2), st.sampled_from([0.0, 1.0, 0.5, -0.5, 1.5, math.nan])
)
SCENARIO_KEY_OR_LINE = re.compile(
    r"scn: (key '\w+'|(" + "|".join(scenario._KEYS) + r") |line \d+)"
)


@st.composite
def scenario_texts_and_error_rates(draw):
    """Scenario text whose grid of 1 to 3 points, step, auxiliary distance and main rate
    are drawn from the whole positive float range (a sum past the largest float is written
    as inf), and the error rates of its BER table's points."""
    # or far enough that R_F*C_main*d_main can overflow and the matched rate become 0
    start = draw(st.one_of(anywhere, st.floats(1e295, 1e308)))
    step = draw(st.one_of(positive, by_decade))
    stop = start + draw(st.integers(0, 2)) * step
    aux = draw(st.one_of(st.none(), anywhere))
    aux_lines = ["d_aux_policy = equal_to_main"] if aux is None else [
        "d_aux_policy = fixed", f"d_aux_cm = {aux!r}"
    ]
    lines = [
        f"K = {draw(st.integers(1, 64))}",
        f"s = {draw(st.integers(1, 16))}",
        f"fec_code_rate = {draw(st.sampled_from([1.0, 0.8, 0.5]) | st.floats(0.05, 1.0))!r}",
        "channel = B",
        "modulation = M",
        f"main_rate_bps = {draw(st.one_of(positive, by_decade, st.floats(1e3, 1e15)))!r}",
        f"d_main_start_cm = {start!r}",
        f"d_main_stop_cm = {stop!r}",
        f"d_main_step_cm = {step!r}",
        *aux_lines,
    ]
    return "\n".join(lines) + "\n", draw(st.lists(error_rates, min_size=3, max_size=3))


def ber_table_text(distances, error_rates) -> str:
    """A BER table with one point per distance, the error rates taken in turn."""
    points = [f"B,M,{d!r},{p!r}" for d, p in zip(distances, itertools.cycle(error_rates))]
    return "channel_id,modulation,distance_cm,p_e\n" + "\n".join(points) + "\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
# the far point that once ended the whole sweep: at 1e299 cm the matched rate is 0
@example((scenario_text(d_start=650, d_stop=1e299, d_step=1e299, modulation="M"), [0.2]))
@given(scenario_texts_and_error_rates())
def test_sweep_and_simulate_return_finite_rows_or_raise_a_named_input_error(case):
    """From the smallest positive float to the largest, a scenario and a BER table holding
    its grid are either rejected naming a key or a line, or every grid point becomes a
    finite row or a row error, in ``sweep`` and ``simulate`` alike, and the sweep's CSV
    reads back equal."""
    scn_text, p_es = case
    try:
        sc = parse_scenario(scn_text, source="scn")
    except ScenarioError as exc:
        assert SCENARIO_KEY_OR_LINE.match(str(exc)), exc
        return
    grid = sc.distances_cm()
    try:
        table = parse_ber_table(ber_table_text(grid, p_es), source="ber")
    except BerTableError as exc:
        assert re.match(r"ber: row \d+: ", str(exc)), exc
        return
    rows, errors = sweep(sc, table)
    sim_rows, sim_errors = simulate(sc, table, generations=2)
    assert sorted([r.d_main_cm for r in rows] + [e.d_main_cm for e in errors]) == sorted(grid)
    assert sim_errors == errors
    assert [r.d_main_cm for r in sim_rows] == [r.d_main_cm for r in rows]
    for row in [*rows, *sim_rows]:
        assert all(map(math.isfinite, dataclasses.astuple(row))), row
    with tempfile.TemporaryDirectory() as tmp:  # not tmp_path: the body reruns per example
        path = os.path.join(tmp, "sweep.csv")
        write_sweep_csv(rows, path)
        assert read_sweep_csv(path) == rows
