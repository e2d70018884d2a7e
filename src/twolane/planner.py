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

All distances are metres, rates bits/second, times seconds. Everything is
a pure function of immutable inputs; sweep points can be planned in
parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fec import FecDerived, FecParams, check_count, check_probability, derive, snap

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
    return max(0, math.ceil(snap(residual_ser * k)))


def total_code_rate(k: int, r: int, code_rate: float) -> float:
    """Combined rate of FEC and coding redundancy: code_rate * k / (k + r)."""
    check_count("k", k, 1)
    check_count("r", r, 0)
    if not 0 < code_rate <= 1:
        raise ValueError("code_rate must be in (0, 1]")
    return code_rate * k / (k + r)


def overhead(total_rate: float) -> float:
    """Fraction of transmitted bits that is not payload: 1 - total_rate."""
    if not 0 < total_rate <= 1:
        raise ValueError("total_rate must be in (0, 1]")
    return 1.0 - total_rate


def lane_times(link: LinkParams, r: int, aux_rate: float) -> tuple[float, float]:
    """Total per-generation delay (transmission + propagation) of each lane.

    With no redundancy there is no auxiliary transmission and t_aux is
    reported as 0.
    """
    check_count("r", r, 0)
    p = link.fec
    t_main = p.k * p.s / (p.code_rate * link.main_rate) + link.main_distance / LIGHT_SPEED
    if r == 0:
        return t_main, 0.0
    if aux_rate <= 0:
        raise ValueError("auxiliary lane required: redundancy > 0 but its rate is 0")
    t_aux = r * p.s / (p.code_rate * aux_rate) + link.aux_distance / LIGHT_SPEED
    return t_main, t_aux


def aux_distance_bound(link: LinkParams) -> float:
    """Strict upper bound on the auxiliary distance for delay matching."""
    p = link.fec
    return p.k * p.s * LIGHT_SPEED / (p.code_rate * link.main_rate) + link.main_distance


def aux_rate(link: LinkParams, r: int) -> float:
    """Auxiliary rate that lands both lanes of a generation simultaneously.

    Zero exactly when r is zero (no auxiliary lane is established). Raises
    InfeasibleAuxDistanceError when the auxiliary distance is not strictly
    below aux_distance_bound(), where the matching rate would diverge or
    turn negative.
    """
    check_count("r", r, 0)
    p = link.fec
    denom = (
        p.code_rate * link.main_rate * (link.main_distance - link.aux_distance)
        + LIGHT_SPEED * p.k * p.s
    )
    if denom <= 0:
        raise InfeasibleAuxDistanceError(
            f"auxiliary distance {link.aux_distance} m is not below the "
            f"feasibility bound {aux_distance_bound(link)} m"
        )
    if r == 0:
        return 0.0
    return r * p.s * LIGHT_SPEED * link.main_rate / denom


def plan(link: LinkParams) -> LinkPlan:
    """Run the full chain from FEC statistics to lane timing for one link."""
    d = derive(link.fec)
    r = redundancy(d.residual_ser, link.fec.k)
    rate = aux_rate(link, r)
    t_main, t_aux = lane_times(link, r, rate)
    rt = total_code_rate(link.fec.k, r, link.fec.code_rate)
    return LinkPlan(
        fec=d,
        redundancy=r,
        total_rate=rt,
        overhead=overhead(rt),
        aux_rate=rate,
        t_main=t_main,
        t_aux=t_aux,
    )
