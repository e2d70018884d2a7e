"""Properties: every planning path gives exactly the floats of the stage-helper chain.

``scenario.sweep`` and ``planner.plan`` run ``planner.grid_kernel``. The reference
here is the chain of checked public stage helpers, ``link_for`` -> ``derive`` ->
``redundancy`` -> ``aux_rate`` -> ``lane_times`` -> ``total_code_rate`` ->
``overhead``, and every float is compared with ``==``. The helpers and the kernel
share each formula's function, so the last property pins each helper to its formula
written out below in its documented operation order: a change of order in one
formula changes the shipped CSVs, and that property names it.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolane import fec, planner
from twolane.bertable import BerPoint, BerTable
from twolane.fec import FecDerived, FecParams, derive
from twolane.planner import LIGHT_SPEED, InfeasibleAuxDistanceError, LinkParams
from twolane.scenario import RowError, Scenario, SweepRow, sweep

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def chain(link: LinkParams) -> tuple:
    """The public stage helpers in plan's order: (FecDerived, R, R_T, theta, C_aux,
    T_main, T_aux); raises what they raise."""
    p = link.fec
    derived = derive(p)
    r = planner.redundancy(derived.residual_ser, p.k)
    rate = planner.aux_rate(link, r)
    t_main, t_aux = planner.lane_times(link, r, rate)
    total = planner.total_code_rate(p.k, r, p.code_rate)
    return derived, r, total, planner.overhead(total), rate, t_main, t_aux


def reference_sweep(sc: Scenario, table: BerTable, interpolate: bool):
    rows, errors = [], []
    for d in sc.distances_cm():
        p_e = table.lookup(sc.channel, sc.modulation, d, interpolate=interpolate)
        try:
            derived, *rest = chain(sc.link_for(d, p_e))
        except InfeasibleAuxDistanceError as exc:
            errors.append(RowError(d_main_cm=d, message=str(exc)))
            continue
        rows.append(SweepRow(d, p_e, derived.residual_ber, derived.residual_ser, *rest))
    return rows, errors


def bound_m(k, s, code_rate, main_rate) -> float:
    """The feasibility bound's distance-free term, K*s*c/(R_F*C_main), in metres."""
    return k * s * LIGHT_SPEED / (code_rate * main_rate)


code_rates = st.one_of(st.sampled_from([1.0, 0.8, 0.5]), st.floats(0.05, 1.0))
main_rates = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(6, 13))
# 0 and tiny BERs give R = 0 points unless R_F = 1; 1 gives R = K
bers = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(0.0, 1e-3))


@st.composite
def sweep_cases(draw):
    """A code-built Scenario, a table over its grid and the lookup mode. Exact lookups
    get a point at every grid distance; interpolated ones get the grid's ends and a few
    points between. A fixed auxiliary distance is drawn near the bound of a drawn grid
    distance, so that grids cross the feasibility bound, or anywhere up to 10 km."""
    k, s = draw(st.integers(1, 300)), draw(st.integers(1, 16))
    code_rate, main_rate = draw(code_rates), draw(main_rates)
    start, step = draw(st.integers(0, 500)) * 1.0, draw(st.sampled_from([0.5, 1.0, 7.3, 50.0]))
    stop = start + draw(st.integers(0, 40)) * step
    aux = {"aux_policy": "equal_to_main"}
    if draw(st.booleans()):
        where = draw(st.floats(-0.5, 1.5))  # of the span; outside [0, 1] no point crosses
        at_m = max(0.0, start + where * (stop - start)) / 100.0
        near = 100.0 * (bound_m(k, s, code_rate, main_rate) + at_m)
        far = draw(st.floats(0.0, 1e6))
        aux = {"aux_policy": "fixed", "aux_distance_cm": draw(st.sampled_from([near, far]))}
    sc = Scenario(k, s, code_rate, "B", "M", main_rate, start, stop, step, **aux)
    grid = sc.distances_cm()
    interpolate = draw(st.booleans())
    if interpolate:
        between = draw(st.sets(st.integers(1, 99), max_size=4))
        span = grid[-1] - grid[0]
        distances = sorted({grid[0], grid[-1], *(grid[0] + span * f / 100 for f in between)})
    else:
        distances = grid
    p_es = draw(st.lists(bers, min_size=len(distances), max_size=len(distances)))
    table = BerTable([BerPoint("B", "M", d, p) for d, p in zip(distances, p_es)])
    return sc, table, interpolate


@PROPERTY
@given(sweep_cases())
def test_sweep_rows_and_errors_equal_the_stage_helper_chain(case):
    sc, table, interpolate = case
    rows, errors = sweep(sc, table, interpolate=interpolate)
    ref_rows, ref_errors = reference_sweep(sc, table, interpolate)
    assert list(map(dataclasses.astuple, rows)) == list(map(dataclasses.astuple, ref_rows))
    assert [type(row.redundancy) for row in rows] == [int] * len(rows)
    assert errors == ref_errors  # the distance with ==, the message as a string


@st.composite
def links(draw):
    """A valid LinkParams whose auxiliary distance is drawn around its bound: below,
    at or past it, and sometimes at 0 or at the main distance."""
    k, s, code_rate, main_rate = (
        draw(st.integers(1, 500)), draw(st.integers(1, 16)), draw(code_rates), draw(main_rates)
    )
    main_distance = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e4)))
    bound = bound_m(k, s, code_rate, main_rate) + main_distance
    aux_distance = draw(
        st.one_of(
            st.sampled_from([0.0, main_distance, bound]),
            st.floats(0.0, 2.0).map(lambda f: f * bound),
        )
    )
    fec_params = FecParams(k=k, s=s, code_rate=code_rate, bit_error_rate=draw(bers))
    return LinkParams(fec_params, main_rate, main_distance, aux_distance)


@PROPERTY
@given(links())
def test_plan_equals_the_stage_helper_chain(link):
    try:
        expected = chain(link)
    except InfeasibleAuxDistanceError as exc:
        with pytest.raises(InfeasibleAuxDistanceError) as raised:
            planner.plan(link)
        assert str(raised.value) == str(exc)
        return
    lp = planner.plan(link)
    assert (lp.fec, lp.redundancy, lp.total_rate, lp.overhead) == expected[:4]
    assert (lp.aux_rate, lp.t_main, lp.t_aux) == expected[4:]


@PROPERTY
@given(links())
def test_each_stage_helper_keeps_its_documented_operation_order(link):
    p, c = link.fec, LIGHT_SPEED
    bits = p.k * p.s
    d = math.floor(fec.snap(bits / p.code_rate - bits))
    t = max(0, (d - 1) // 2)
    pb = max(0.0, (bits * p.bit_error_rate - p.code_rate * t) / bits)
    ps = 1.0 - (1.0 - pb) ** p.s
    assert derive(p) == FecDerived(d, t, pb, ps)
    r = max(0, math.ceil(fec.snap(ps * p.k)))
    assert planner.redundancy(ps, p.k) == r
    total = p.code_rate * p.k / (p.k + r)
    assert planner.total_code_rate(p.k, r, p.code_rate) == total
    assert planner.overhead(total) == 1.0 - total
    bound = p.k * p.s * c / (p.code_rate * link.main_rate) + link.main_distance
    assert planner.aux_distance_bound(link) == bound

    denom = p.code_rate * link.main_rate * (link.main_distance - link.aux_distance) + c * p.k * p.s
    if denom <= 0:
        with pytest.raises(InfeasibleAuxDistanceError) as raised:
            planner.aux_rate(link, r)
        assert str(raised.value) == (
            f"auxiliary distance {link.aux_distance} m is not below the "
            f"feasibility bound {bound} m"
        )
        return
    rate = r * p.s * c * link.main_rate / denom if r else 0.0
    assert planner.aux_rate(link, r) == rate
    t_main = p.k * p.s / (p.code_rate * link.main_rate) + link.main_distance / c
    t_aux = r * p.s / (p.code_rate * rate) + link.aux_distance / c if r else 0.0
    assert planner.lane_times(link, r, rate) == (t_main, t_aux)
