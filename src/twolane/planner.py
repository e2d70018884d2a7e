"""Link planning for a two-lane transmission system.

The main lane carries the K native symbols of each generation at high rate
over distance d_main; an error-free auxiliary lane carries the R coded
symbols. This module derives, from the FEC residual statistics:

  * the minimal redundancy R = ceil(P_s * K),
  * the combined code rate R_F*K/(K+R) and its overhead complement,
  * per-lane total delays (transmission plus propagation),
  * the auxiliary rate that makes both lanes of one generation arrive
    simultaneously, which exists only while the auxiliary distance stays
    below  K*s*c / (R_F*C_main) + d_main.

Each formula, these and fec's, is one plain-number function that the public
stage helpers call after their checks. ``grid_kernel`` calls the same ones: it
computes what a link shape (K, s, R_F, C_main) fixes once (Hamming distance,
budget R_F*t, the lane terms) and plans each (p_e, d_main, d_aux) point to
plain numbers, so ``plan``, its one-point case, and ``scenario.sweep`` give the
same floats, and a sweep builds no LinkParams or LinkPlan per point.

All distances are metres, rates bits/second, times seconds. Everything is
a pure function of immutable inputs; sweep points can be planned in
parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fec import (  # derive is not called here; bench/tracer.py wraps planner.derive
    FecDerived, FecParams, _correction_budget, _hamming_distance, _residual_ber,
    _residual_ser, check_count, check_probability, correctable_bits, derive, snap,
)

LIGHT_SPEED = 3e8  # m/s, fixed propagation speed for both lanes


class InfeasibleAuxDistanceError(ValueError):
    """Auxiliary distance at or beyond the delay-matching feasibility bound."""


@dataclass(frozen=True)
class LinkParams:
    """Full parameter set for one planned link."""

    fec: FecParams
    main_rate: float  # bits/s on the main lane
    main_distance: float  # m
    aux_distance: float  # m

    def __post_init__(self):
        for name in ("main_rate", "main_distance", "aux_distance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.main_rate <= 0:
            raise ValueError("main_rate must be > 0")
        for name in ("main_distance", "aux_distance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass(frozen=True)
class LinkPlan:
    """Everything derived from a LinkParams by plan()."""

    fec: FecDerived
    redundancy: int  # coded symbols per generation
    total_rate: float  # combined FEC + coding rate
    overhead: float  # 1 - total_rate
    aux_rate: float  # bits/s; 0 when no redundancy is needed
    t_main: float  # s
    t_aux: float  # s; 0 when no auxiliary transmission happens


def main_rate_from_baud(baud_rate: float, bits_per_symbol: int) -> float:
    """Bit rate of a lane driven at ``baud_rate`` with 2^L-level modulation."""
    if baud_rate <= 0:
        raise ValueError("baud_rate must be > 0")
    check_count("bits_per_symbol", bits_per_symbol, 1)
    rate = baud_rate * bits_per_symbol
    if not math.isfinite(rate):
        raise ValueError(f"baud_rate * bits_per_symbol must be finite, got {rate!r}")
    return rate


def redundancy(residual_ser: float, k: int) -> int:
    """Minimal integer number of coded symbols covering the expected erasures."""
    check_probability("residual_ser", residual_ser)
    check_count("k", k, 1)
    return _redundancy(residual_ser, k)


def total_code_rate(k: int, r: int, code_rate: float) -> float:
    """Combined rate of FEC and coding redundancy: code_rate * k / (k + r)."""
    check_count("k", k, 1)
    check_count("r", r, 0)
    if not 0 < code_rate <= 1:
        raise ValueError("code_rate must be in (0, 1]")
    return _total_code_rate(k, r, code_rate)


def overhead(total_rate: float) -> float:
    """Fraction of transmitted bits that is not payload: 1 - total_rate."""
    if not 0 < total_rate <= 1:
        raise ValueError("total_rate must be in (0, 1]")
    return _overhead(total_rate)


def lane_times(link: LinkParams, r: int, aux_rate: float) -> tuple[float, float]:
    """Total per-generation delay (transmission + propagation) of each lane.

    With no redundancy there is no auxiliary transmission and t_aux is
    reported as 0.
    """
    check_count("r", r, 0)
    p = link.fec
    _, t_natives, _ = _lanes(p.k, p.s, p.code_rate, link.main_rate)
    return _lane_times(
        r, p.s, p.code_rate, t_natives, aux_rate, link.main_distance, link.aux_distance
    )


def aux_distance_bound(link: LinkParams) -> float:
    """Strict upper bound on the auxiliary distance for delay matching."""
    p = link.fec
    fec_rate, _, _ = _lanes(p.k, p.s, p.code_rate, link.main_rate)
    return _aux_distance_bound(p.k, p.s, fec_rate, link.main_distance)


def aux_rate(link: LinkParams, r: int) -> float:
    """Auxiliary rate that lands both lanes of a generation simultaneously.

    Zero exactly when r is zero (no auxiliary lane is established). Raises
    InfeasibleAuxDistanceError when the auxiliary distance is not strictly
    below aux_distance_bound(), where the matching rate would diverge or
    turn negative.
    """
    check_count("r", r, 0)
    p = link.fec
    fec_rate, _, reach = _lanes(p.k, p.s, p.code_rate, link.main_rate)
    return _aux_rate(
        r, p.k, p.s, link.main_rate, fec_rate, reach, link.main_distance, link.aux_distance
    )


def grid_kernel(k: int, s: int, code_rate: float, main_rate: float):
    """The planning chain for one link shape, with what the shape fixes computed once.

    Returns ``(hamming_distance, correctable_bits, point)``. ``point(p_e,
    main_distance, aux_distance)`` plans one point of the shape and returns
    ``(residual_ber, residual_ser, redundancy, total_rate, overhead, aux_rate,
    t_main, t_aux)``, the order of SweepRow's columns after p_e, or raises what
    ``plan`` raises. The inputs are not checked here: ``plan`` takes them from a
    LinkParams, ``scenario.sweep`` from a Scenario and a checked p_e.
    """
    bits = k * s
    d = _hamming_distance(bits, code_rate)
    t = correctable_bits(d)
    budget = _correction_budget(code_rate, t)
    fec_rate, t_natives, reach = _lanes(k, s, code_rate, main_rate)

    def point(p_e: float, main_distance: float, aux_distance: float) -> tuple:
        pb = _residual_ber(bits, p_e, budget)
        ps = _residual_ser(pb, s)
        r = _redundancy(ps, k)
        rate = _aux_rate(r, k, s, main_rate, fec_rate, reach, main_distance, aux_distance)
        t_main, t_aux = _lane_times(r, s, code_rate, t_natives, rate, main_distance, aux_distance)
        rt = _total_code_rate(k, r, code_rate)
        return pb, ps, r, rt, _overhead(rt), rate, t_main, t_aux

    return d, t, point


def plan(link: LinkParams) -> LinkPlan:
    """Run the full chain from FEC statistics to lane timing for one link."""
    p = link.fec
    d, t, point = grid_kernel(p.k, p.s, p.code_rate, link.main_rate)
    pb, ps, *rest = point(p.bit_error_rate, link.main_distance, link.aux_distance)
    return LinkPlan(FecDerived(d, t, pb, ps), *rest)


# The formulas that grid_kernel evaluates unchecked, one plain-number function each; the
# helpers above call them after their checks.


def _lanes(k: int, s: int, code_rate: float, main_rate: float) -> tuple[float, float, float]:
    """The lane terms that only the link shape sets: R_F*C_main, the natives'
    transmission time K*s/(R_F*C_main), and c*K*s."""
    fec_rate = code_rate * main_rate
    return fec_rate, k * s / fec_rate, LIGHT_SPEED * k * s


def _redundancy(residual_ser: float, k: int) -> int:
    return max(0, math.ceil(snap(residual_ser * k)))


def _total_code_rate(k: int, r: int, code_rate: float) -> float:
    return code_rate * k / (k + r)


def _overhead(total_rate: float) -> float:
    return 1.0 - total_rate


def _aux_distance_bound(k: int, s: int, fec_rate: float, main_distance: float) -> float:
    return k * s * LIGHT_SPEED / fec_rate + main_distance


def _aux_rate(r, k, s, main_rate, fec_rate, reach, main_distance, aux_distance) -> float:
    denom = fec_rate * (main_distance - aux_distance) + reach
    if denom <= 0:
        raise InfeasibleAuxDistanceError(
            f"auxiliary distance {aux_distance} m is not below the feasibility bound "
            f"{_aux_distance_bound(k, s, fec_rate, main_distance)} m"
        )
    if r == 0:
        return 0.0
    return r * s * LIGHT_SPEED * main_rate / denom


def _lane_times(r, s, code_rate, t_natives, aux_rate, main_distance, aux_distance):
    t_main = t_natives + main_distance / LIGHT_SPEED
    if r == 0:
        return t_main, 0.0
    if aux_rate <= 0:
        raise ValueError("auxiliary lane required: redundancy > 0 but its rate is 0")
    return t_main, r * s / (code_rate * aux_rate) + aux_distance / LIGHT_SPEED
