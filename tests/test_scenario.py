import dataclasses
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolane import codec, planner, scenario, sim
from twolane.bertable import load_builtin_table, parse_ber_table
from twolane.fec import binomial_tail_above
from twolane.scenario import (
    ScenarioError,
    SWEEP_COLUMNS,
    SweepRow,
    classify_aux_technology,
    parse_scenario,
    plan_point,
    read_sweep_csv,
    simulate,
    sweep,
    write_sim_csv,
    write_sweep_csv,
)

from conftest import not_full_rank_rate, scenario_text


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
        ("seed = 7", "seed = -1", "seed must be >= 0, got -1"),
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
        "zero-baud-rate",
        "overflowing-baud-rate",
        "oversized-grid",
    ],
)
def test_parse_scenario_rejects_bad_number(old, new, message):
    lines = scenario_text().splitlines()
    text = "\n".join(new if line == old else line for line in lines)
    assert old in lines
    with pytest.raises(ScenarioError, match=f"^bad\\.scn: {re.escape(message)}"):
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
    "field,value",
    [
        ("d_start_cm", math.nan),
        ("d_step_cm", math.nan),
        ("d_stop_cm", math.inf),
        ("d_start_cm", -math.inf),
    ],
)
def test_scenario_rejects_non_finite_distance(field, value):
    sc = parse_scenario(scenario_text())
    with pytest.raises(ScenarioError, match=f"{field} must be finite"):
        dataclasses.replace(sc, **{field: value})


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("k", 0, "K must be an integer >= 1, got 0"),
        ("code_rate", 1.5, "fec_code_rate must be in (0, 1]"),
        ("main_rate", math.inf, "main_rate_bps must be finite, got inf"),
        ("d_start_cm", -50.0, "d_main_start_cm must be >= 0"),
        ("aux_distance_cm", -1.0, "d_aux_cm must be >= 0"),
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
        assert plan_point(sc, table, d) == by_distance[d]


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
    assert text.splitlines()[0] == ",".join(SWEEP_COLUMNS)
    assert "\r" not in text
    assert read_sweep_csv(path) == rows


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


def test_binomial_tail_matches_scipy():
    from scipy.stats import binom

    for k, p, r in [(30, 0.2, 3), (30, 0.5822, 18), (10, 0.0, 0), (10, 1.0, 5), (30, 0.3, 30)]:
        assert binomial_tail_above(k, p, r) == pytest.approx(
            float(binom.sf(r, k, p)), abs=1e-12
        )


def test_binomial_tail_beyond_float_coefficients():
    # C(k, i) passes the float range from k of about 1030 on
    from scipy.stats import binom

    for k, p, r in [
        (1100, 0.5, 10),
        (1100, 0.5, 560),
        (1100, 0.05, 60),
        (1100, 0.0, 10),
        (1100, 1.0, 10),
        (5000, 0.5, 2500),
        (5000, 0.1, 520),
        (5000, 0.3, 1560),
    ]:
        assert binomial_tail_above(k, p, r) == pytest.approx(float(binom.sf(r, k, p)), rel=1e-12)


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
    with pytest.raises(ScenarioError, match="seed must be >= 0, got -1"):
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
    def off_rate_plan(link):
        lp = planner.plan(link)
        rate = lp.aux_rate * 2
        t_main, t_aux = planner.lane_times(link, lp.redundancy, rate)
        return dataclasses.replace(lp, aux_rate=rate, t_main=t_main, t_aux=t_aux)

    monkeypatch.setattr(scenario, "plan", off_rate_plan)
    sc = parse_scenario(scenario_text(d_start=650, d_stop=650))
    (row,), _ = simulate(sc, flat_table(), generations=1)
    lp = off_rate_plan(sc.link_for(650, 0.2))
    assert row.redundancy == lp.redundancy > 0
    assert row.mean_lane_skew_s == pytest.approx(abs(lp.t_main - lp.t_aux), abs=1e-12)
    assert row.mean_lane_skew_s > 1e-12
