"""Properties: every planning path gives exactly the floats of the written-out chain.

``scenario.sweep`` and ``planner.plan`` run ``planner.grid_kernel``, which runs
``fec.chain``; ``fec.derive`` is the chain's one-point case, and ``planner.aux_distance_bound``
computes the bound in the kernel's error message. The reference is
``conftest.reference_chain``, the paper's chain written out with no package code, and
every float is compared with ``==``: a change of operation order in one formula
changes the shipped CSVs, and these properties catch it.
"""

import dataclasses
import math
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twolane import planner
from twolane.bertable import BerPoint, BerTable
from twolane.fec import FecDerived, FecParams, derive
from twolane.planner import LIGHT_SPEED, InfeasibleAuxDistanceError, LinkParams
from twolane.scenario import RowError, Scenario, SweepRow, sweep

from conftest import reference_chain

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def infeasible_message(aux_distance, bound) -> str:
    return f"auxiliary distance {aux_distance} m is not below the feasibility bound {bound} m"


def reference_sweep(sc: Scenario, table: BerTable, interpolate: bool):
    rows, errors = [], []
    for d in sc.distances_cm():
        p_e = table.lookup(sc.channel, sc.modulation, d, interpolate=interpolate)
        main_distance, aux_distance = sc.lane_distances(d)
        _, _, pb, ps, *chain, bound, rate, t_main, t_aux = reference_chain(
            sc.k, sc.s, sc.code_rate, p_e, sc.main_rate, main_distance, aux_distance
        )
        if rate is None:
            errors.append(RowError(d_main_cm=d, message=infeasible_message(aux_distance, bound)))
            continue
        rows.append(SweepRow(d, p_e, pb, ps, *chain, rate, t_main, t_aux))
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
def test_sweep_rows_and_errors_equal_the_written_out_chain(case):
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
def test_plan_equals_the_written_out_chain(link):
    p = link.fec
    *chain, bound, rate, t_main, t_aux = reference_chain(
        p.k, p.s, p.code_rate, p.bit_error_rate, link.main_rate, link.main_distance,
        link.aux_distance,
    )
    if rate is None:
        with pytest.raises(InfeasibleAuxDistanceError) as raised:
            planner.plan(link)
        assert str(raised.value) == infeasible_message(link.aux_distance, bound)
        return
    lp = planner.plan(link)
    assert (*dataclasses.astuple(lp.fec), lp.redundancy, lp.total_rate, lp.overhead) == (*chain,)
    assert (lp.aux_rate, lp.t_main, lp.t_aux) == (rate, t_main, t_aux)
    assert type(lp.redundancy) is int


@PROPERTY
@given(links())
def test_each_stage_helper_keeps_its_documented_operation_order(link):
    """The stage quantities outside ``plan``: ``derive``'s FEC statistics and the bound."""
    p = link.fec
    d, t, pb, ps, *_, bound, _, _, _ = reference_chain(
        p.k, p.s, p.code_rate, p.bit_error_rate, link.main_rate, link.main_distance,
        link.aux_distance,
    )
    assert derive(p) == FecDerived(d, t, pb, ps)
    assert planner.aux_distance_bound(link) == bound


# every positive finite main rate, the ends and the subnormals among them
any_main_rates = st.one_of(
    st.sampled_from([5e-324, 1e-320, sys.float_info.min, 1.0, 1e308, sys.float_info.max]),
    st.floats(5e-324, sys.float_info.max),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, 307)),
)


# every code rate in (0, 1], the subnormals among them; FecParams rejects those for which
# K*s/R_F overflows, so the Hamming distance would not be an integer
any_code_rates = st.one_of(
    st.sampled_from([5e-324, 1e-310, sys.float_info.min, 1.0]),
    st.floats(5e-324, 1.0),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-323, -1)),
)


@PROPERTY
# one bit per generation, one ulp below the bound: the matched rate's denominator is at its
# least, so C_aux = R*s*c*C_main / denom is at its largest; 1e299 would overflow it, and
# 1.7e292 is just inside the rule
@example(1, 1, 1.0, 1e299, 1.0, 0.0, 1.0 - 2.0**-52)
@example(1, 1, 1.0, 1.7e292, 1.0, 0.0, 1.0 - 2.0**-52)
# K*s/R_F overflows, so the distance is no integer, while every lane term stays finite
@example(30, 8, 1e-310, 1e285, 0.2, 6.5, 0.0)
@given(
    st.integers(1, 500), st.integers(1, 16), any_code_rates, any_main_rates, bers,
    st.one_of(st.just(0.0), st.floats(0.0, 1e4)),
    st.one_of(
        st.sampled_from([-1.0, 0.0, 1.0]),
        st.floats(0.0, 2.0),
        st.integers(1, 53).map(lambda j: 1.0 - 2.0**-j),  # just below the bound
    ),
)
def test_plan_returns_finite_values_or_raises_value_error(k, s, code_rate, main_rate, p_e,
                                                          main_distance, where):
    """From the smallest positive code and main rates to the largest, a link is either
    rejected where it is built or planned to finite values. The auxiliary distance is the
    main one (``where`` = -1) or ``where`` times the feasibility bound; just below the
    bound, the matched rate's denominator is smallest."""
    if code_rate * main_rate:
        bound = bound_m(k, s, code_rate, main_rate) + main_distance
    else:  # R_F*C_main underflows; LinkParams rejects the rate
        bound = math.inf
    aux_distance = main_distance if where < 0 else where * bound if where else 0.0
    try:
        fec_params = FecParams(k=k, s=s, code_rate=code_rate, bit_error_rate=p_e)
        lp = planner.plan(LinkParams(fec_params, main_rate, main_distance, aux_distance))
    except ValueError:
        return
    values = (*dataclasses.astuple(lp.fec), *dataclasses.astuple(lp)[1:])
    assert all(map(math.isfinite, values)), values
