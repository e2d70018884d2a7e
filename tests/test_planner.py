import re

import pytest
import numpy as np

from twolane import planner
from twolane.fec import FecParams
from twolane.planner import InfeasibleAuxDistanceError, LinkParams


def link(
    ber=0.2,
    k=30,
    s=8,
    code_rate=0.8,
    main_rate=8e11,
    main_distance=6.5,
    aux_distance=1.5,
):
    return LinkParams(
        fec=FecParams(k=k, s=s, code_rate=code_rate, bit_error_rate=ber),
        main_rate=main_rate,
        main_distance=main_distance,
        aux_distance=aux_distance,
    )


def planned(ber, **link_kwargs):
    """The headline link's plan at channel BER ``ber``: R = 0 at 0.05, 11 at 0.15, 18 at 0.2."""
    return planner.plan(link(ber=ber, **link_kwargs))


# ----------------------------------------------------------------- redundancy


def test_redundancy_examples():
    assert planned(0.05).redundancy == 0
    assert planned(0.2).redundancy == 18  # ceil(30 * 0.5821)
    assert planned(1.0, code_rate=1.0).redundancy == 30


def test_redundancy_snaps_float_noise():
    # P_s = 1 - (1 - 0.3) is 0.30000000000000004 and P_s * 10 is 3.0000000000000004;
    # the ceiling must stay 3
    assert planned(0.3, k=10, s=1, code_rate=1.0).redundancy == 3


def test_redundancy_is_minimal_cover():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        ber = float(rng.uniform(0, 1))
        k = int(rng.integers(1, 101))
        # one-bit symbols at code rate 1: P_s is the channel BER up to rounding
        _, ps, r, *_ = planner.grid_kernel(k, 1, 1.0, 8e11)[2](ber, 6.5, 1.5)
        assert r >= ps * k - 1e-6
        assert r - 1 < ps * k + 1e-6


# ------------------------------------------------------------------ code rate


def test_total_code_rate_examples():
    assert planned(0.05).total_rate == pytest.approx(0.8, rel=1e-15)
    lp = planned(0.15)
    assert lp.redundancy == 11
    assert lp.total_rate == pytest.approx(24 / 41, rel=1e-12)
    assert planned(1.0).total_rate == pytest.approx(0.4, rel=1e-15)  # R = 30


def test_total_code_rate_capped_by_fec_rate():
    rng = np.random.default_rng(1)
    for _ in range(500):
        k = int(rng.integers(1, 101))
        ber = int(rng.integers(0, 101)) / 100
        rate = float(rng.uniform(0.01, 1.0))
        rt = planner.grid_kernel(k, 8, rate, 8e11)[2](ber, 6.5, 6.5)[3]
        assert 0 < rt <= rate + 1e-15


def test_overhead_examples():
    assert planned(0.0, code_rate=1.0).overhead == 0.0
    assert planned(0.05).overhead == pytest.approx(0.2, rel=1e-12)
    assert planned(0.15).overhead == pytest.approx(17 / 41, rel=1e-9)  # 1 - 0.585366


# ----------------------------------------------------------------- lane times


def test_lane_times_headline_value():
    lp = planned(0.05)
    assert lp.t_main == pytest.approx(3.75e-10 + 6.5 / 3e8, rel=1e-12)
    assert lp.t_main == pytest.approx(2.2041666666666664e-08, rel=1e-12)
    assert lp.t_aux == 0.0


def test_lane_times_vanish_in_the_fast_short_limit():
    lp = planned(0.05, main_rate=1e18, main_distance=0.0, aux_distance=0.0)
    assert lp.t_main < 1e-15


def test_lane_times_requires_aux_rate_with_redundancy():
    # 6.4e11 * 1e297 m overflows the rate's denominator, so the matched rate is 0
    with pytest.raises(ValueError, match="auxiliary lane required"):
        planned(0.2, main_distance=1e297)


# ------------------------------------------------------------------- aux rate


def test_aux_rate_zero_without_redundancy():
    assert planned(0.05).aux_rate == 0.0


def test_aux_rate_headline_value():
    assert planned(0.15).aux_rate == pytest.approx(6454767726.161369, rel=1e-12)  # R = 11


def test_aux_rate_equal_distances_reduces_to_rate_ratio():
    rng = np.random.default_rng(2)
    for _ in range(200):
        d = float(rng.uniform(0, 100))
        ber = int(rng.integers(1, 31)) / 30
        lp = planned(ber, main_distance=d, aux_distance=d)
        assert lp.aux_rate == pytest.approx(8e11 * lp.redundancy / 30, rel=1e-12)
    # R=11 lands at 2.9333e11 bps regardless of the shared distance
    assert planned(0.15, main_distance=5.0, aux_distance=5.0).aux_rate == pytest.approx(
        293333333333.3333, rel=1e-12
    )


def test_aux_rate_nonincreasing_in_main_distance_for_fixed_r():
    rates = [planned(0.15, main_distance=d).aux_rate for d in np.linspace(2.0, 20.0, 50)]
    assert all(b <= a for a, b in zip(rates, rates[1:]))


def test_aux_rate_infeasible_distance():
    # bound at 8e11 is d_main + 0.1125 m
    with pytest.raises(InfeasibleAuxDistanceError, match="feasibility bound"):
        planned(0.2, main_distance=1.0, aux_distance=1.2)


def test_aux_distance_bound_examples():
    assert planner.aux_distance_bound(link(main_distance=8.0)) == pytest.approx(
        8.1125, rel=1e-12
    )
    assert planner.aux_distance_bound(link(main_distance=0.0)) == pytest.approx(
        0.1125, rel=1e-12
    )
    nearly = planner.aux_distance_bound(link(main_rate=1e18, main_distance=5.0))
    assert abs(nearly - 5.0) < 1e-6


# ----------------------------------------------------------------------- plan


def test_plan_clean_channel_fixed_point():
    lp = planner.plan(link(ber=0.05))
    assert lp.redundancy == 0
    assert lp.total_rate == pytest.approx(0.8, rel=1e-15)
    assert lp.overhead == pytest.approx(0.2, rel=1e-12)
    assert lp.aux_rate == 0.0
    assert lp.t_aux == 0.0


def test_plan_headline_chain():
    lp = planner.plan(link(ber=0.2))
    assert lp.fec.residual_ber == pytest.approx(24.8 / 240, rel=1e-12)
    assert lp.fec.residual_ser == pytest.approx(0.5821232558667687, rel=1e-12)
    assert lp.redundancy == 18
    assert lp.total_rate == pytest.approx(0.5, rel=1e-12)
    assert lp.overhead == pytest.approx(0.5, rel=1e-12)
    assert lp.aux_rate == pytest.approx(10562347188.26406, rel=1e-12)


def test_plan_infeasible_aux_distance_propagates():
    with pytest.raises(InfeasibleAuxDistanceError):
        planner.plan(link(main_distance=1.0, aux_distance=5.0))


def test_plan_delay_matching():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 300:
        lk = link(
            ber=float(rng.uniform(0.1, 1.0)),
            main_rate=float(10 ** rng.uniform(6, 13)),
            main_distance=float(rng.uniform(0, 50)),
            aux_distance=0.0,
        )
        bound = planner.aux_distance_bound(lk)
        lk = link(
            ber=lk.fec.bit_error_rate,
            main_rate=lk.main_rate,
            main_distance=lk.main_distance,
            aux_distance=float(rng.uniform(0, bound * 0.999)),
        )
        lp = planner.plan(lk)
        if lp.redundancy == 0:
            continue
        checked += 1
        assert abs(lp.t_main - lp.t_aux) <= 1e-12 * lp.t_main


def test_plan_monotone_in_channel_ber():
    redundancies = []
    rates = []
    for ber in np.linspace(0, 1, 80):
        lp = planner.plan(link(ber=float(ber)))
        redundancies.append(lp.redundancy)
        rates.append(lp.total_rate)
        assert lp.overhead == 1.0 - lp.total_rate
    assert all(b >= a for a, b in zip(redundancies, redundancies[1:]))
    assert all(b <= a + 1e-15 for a, b in zip(rates, rates[1:]))


# ----------------------------------------------------------------- validation


def test_link_params_validation():
    with pytest.raises(ValueError):
        link(main_rate=0.0)
    with pytest.raises(ValueError):
        link(main_distance=-1.0)
    with pytest.raises(ValueError):
        link(aux_distance=-0.5)


@pytest.mark.parametrize(
    "field, value",
    [
        ("main_rate", float("nan")),
        ("main_rate", float("inf")),
        ("main_distance", float("nan")),
        ("aux_distance", float("inf")),
    ],
)
def test_link_params_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value!r}$"):
        link(**{field: value})


@pytest.mark.parametrize(
    "code_rate, main_rate",
    [(0.5, 5e-324), (0.5, 1e-320), (1.0, 1e-300), (1.0, 1e308), (0.8, 1e290)],
)
def test_link_params_rejects_a_main_rate_whose_plan_is_not_finite(code_rate, main_rate):
    message = f"main_rate must keep lane times and auxiliary rates finite, got {main_rate!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        link(code_rate=code_rate, main_rate=main_rate)


def test_main_rate_from_baud():
    assert planner.main_rate_from_baud(25e9, 4) == 1e11
    with pytest.raises(ValueError):
        planner.main_rate_from_baud(0, 4)
    with pytest.raises(ValueError):
        planner.main_rate_from_baud(25e9, 0)
    for value in (2.5, True):
        message = f"^bits_per_symbol must be an integer >= 1, got {value!r}$"
        with pytest.raises(ValueError, match=message):
            planner.main_rate_from_baud(1e9, value)
    with pytest.raises(ValueError, match=r"^baud_rate \* bits_per_symbol must be finite, got inf$"):
        planner.main_rate_from_baud(1e308, 8)
