import dataclasses
import math
import re

import numpy as np
import pytest

from twolane import planner, sim
from twolane.fec import FecParams
from twolane.planner import LinkParams
from twolane.sim import SimConfig

from conftest import not_full_rank_rate


def make_link(ber=0.2, main_rate=8e11, main_distance=6.5, aux_distance=1.5):
    return LinkParams(
        fec=FecParams(k=30, s=8, code_rate=0.8, bit_error_rate=ber),
        main_rate=main_rate,
        main_distance=main_distance,
        aux_distance=aux_distance,
    )


def config(ber=0.2, generations=200, seed=1, mode="analytic-erasure", **plan_overrides):
    link = make_link(ber=ber)
    lp = planner.plan(link)
    if plan_overrides:
        lp = dataclasses.replace(lp, **plan_overrides)
    return SimConfig(
        link=link, plan=lp, generations=generations, rng_seed=seed, error_mode=mode
    )


def plan_with_residual_ser(ps: float, redundancy: int, link=None):
    """Plan override for what-if runs: forced erasure probability and R."""
    link = link or make_link()
    lp = planner.plan(link)
    fec_forced = dataclasses.replace(lp.fec, residual_ser=ps)
    rate = planner.aux_rate(link, redundancy)
    t_main, t_aux = planner.lane_times(link, redundancy, rate)
    return dataclasses.replace(
        lp,
        fec=fec_forced,
        redundancy=redundancy,
        aux_rate=rate,
        t_main=t_main,
        t_aux=t_aux,
    )


# -------------------------------------------------------------- erase_symbols


def test_erase_symbols_endpoints():
    rng = np.random.default_rng(0)
    assert sim.erase_symbols(30, 0.0, rng).size == 30
    assert sim.erase_symbols(30, 1.0, rng).size == 0


def test_erase_symbols_binomial_mean():
    rng = np.random.default_rng(1)
    trials = 100_000
    survivors = sum(sim.erase_symbols(30, 0.5, rng).size for _ in range(trials))
    mean = survivors / trials
    sigma = math.sqrt(30 * 0.25 / trials)
    assert abs(mean - 15.0) <= 3 * sigma


# --------------------------------------------------------------- corrupt_bits


def test_corrupt_bits_error_free():
    rng = np.random.default_rng(2)
    assert sim.corrupt_bits(30, 8, 0.0, 29, 0.8, rng).size == 30


def test_corrupt_bits_saturated_channel():
    rng = np.random.default_rng(3)
    # all 240 bits flip; a 23-bit budget cannot clean any full symbol
    assert sim.corrupt_bits(30, 8, 1.0, 29, 0.8, rng).size == 0


def test_corrupt_bits_budget_covers_everything():
    rng = np.random.default_rng(4)
    # huge budget: every flip is corrected, nothing erased
    assert sim.corrupt_bits(30, 8, 0.3, 1000, 1.0, rng).size == 30


def test_corrupt_bits_budget_snaps_float_noise():
    rng = np.random.default_rng(6)
    # 0.57 * 100 == 56.99999999999999; the budget is 57 and cleans all 57 flips
    assert sim.corrupt_bits(57, 1, 1.0, 100, 0.57, rng).size == 57


def test_corrupt_bits_mean_matches_analytic_model():
    rng = np.random.default_rng(5)
    k_ps = 30 * 0.5821232558667687
    trials = 20_000
    erased = sum(30 - sim.corrupt_bits(30, 8, 0.2, 29, 0.8, rng).size for _ in range(trials))
    mean = erased / trials
    assert abs(mean - k_ps) <= 0.10 * k_ps


# ------------------------------------------------------------------------ run


def test_run_lossless_channel():
    report = sim.run(config(ber=0.0, generations=50))
    assert report.decode_failure_rate == 0.0
    assert report.symbol_erasure_rate == 0.0
    assert report.decoded_generations == 50
    assert report.payload_mismatches == 0
    assert report.received_histogram == {30: 50}


def test_run_erasure_rate_tracks_plan():
    cfg = config(ber=0.2, generations=2000, seed=11)
    report = sim.run(cfg)
    ps = cfg.plan.fec.residual_ser
    sigma = math.sqrt(ps * (1 - ps) / (30 * 2000))
    assert abs(report.symbol_erasure_rate - ps) <= 4 * sigma
    assert report.payload_mismatches == 0


def test_run_failure_rate_near_binomial_tail():
    from scipy.stats import binom

    cfg = dataclasses.replace(
        config(generations=3000, seed=13), plan=plan_with_residual_ser(0.2, 3)
    )
    report = sim.run(cfg)
    expected = float(binom.sf(3, 30, 0.2)) + not_full_rank_rate(30, 0.2, 3)
    sigma = math.sqrt(expected * (1 - expected) / 3000)
    assert abs(report.decode_failure_rate - expected) <= 3 * sigma


def test_run_auxiliary_lane_always_delivers():
    cfg = config(ber=0.2, generations=300, seed=17)
    report = sim.run(cfg)
    r = cfg.plan.redundancy
    assert r > 0
    assert min(report.received_histogram) >= r
    assert max(report.received_histogram) <= 30 + r
    assert sum(report.received_histogram.values()) == 300


def test_run_counts_are_consistent():
    cfg = dataclasses.replace(
        config(generations=500, seed=19), plan=plan_with_residual_ser(0.2, 3)
    )
    report = sim.run(cfg)
    total = (
        report.decoded_generations
        + report.insufficient_failures
        + report.singular_failures
    )
    assert total == report.sent_generations == 500
    assert report.decode_failure_rate == pytest.approx(
        (report.insufficient_failures + report.singular_failures) / 500
    )


def test_run_skew_zero_with_matched_aux_rate():
    report = sim.run(config(ber=0.2, generations=20))
    assert report.mean_lane_skew <= 1e-12


def test_run_skew_matches_analytic_for_other_aux_rate():
    link = make_link()
    lp = planner.plan(link)
    off_rate = lp.aux_rate * 2
    t_main, t_aux = planner.lane_times(link, lp.redundancy, off_rate)
    cfg = SimConfig(
        link=link,
        plan=dataclasses.replace(lp, aux_rate=off_rate),
        generations=20,
        rng_seed=23,
    )
    report = sim.run(cfg)
    assert report.mean_lane_skew == pytest.approx(abs(t_main - t_aux), abs=1e-12)


def test_run_deterministic_for_fixed_seed():
    a = sim.run(config(generations=100, seed=29))
    b = sim.run(config(generations=100, seed=29))
    assert a == b
    c = sim.run(config(generations=100, seed=30))
    assert a != c


def test_run_bit_level_mode():
    report = sim.run(config(ber=0.2, generations=300, seed=31, mode="bit-level"))
    assert report.payload_mismatches == 0
    # R = 18 covers the mean erasure count; most generations decode
    assert report.decoded_generations > 100


def test_sim_config_validation():
    link = make_link()
    lp = planner.plan(link)
    with pytest.raises(ValueError):
        SimConfig(link=link, plan=lp, generations=0)
    with pytest.raises(ValueError, match="error_mode"):
        SimConfig(link=link, plan=lp, generations=1, error_mode="nonsense")
    with pytest.raises(ValueError):
        SimConfig(link=link, plan=lp, generations=1, payload_len=0)
    # rejected here, naming the field, not inside sim.run
    for kwargs, message in (
        ({"generations": 2.5}, "generations must be an integer >= 1, got 2.5"),
        ({"payload_len": 2.5}, "payload_len must be an integer >= 1, got 2.5"),
        ({"rng_seed": 1.0}, "rng_seed must be an integer >= 0, got 1.0"),
        ({"rng_seed": -1}, "rng_seed must be an integer >= 0, got -1"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SimConfig(link=link, plan=lp, **{"generations": 1, **kwargs})
    numpy_ints = SimConfig(
        link=link, plan=lp, generations=np.int64(2), rng_seed=np.uint32(3), payload_len=np.int8(4)
    )
    assert sim.run(numpy_ints).sent_generations == 2
