"""Link planning for a two-lane transmission system.

The main lane carries the K native symbols of each generation at high rate
over distance d_main; an error-free auxiliary lane carries the R coded
symbols. From the FEC residual statistics (``fec``) the planner derives:

  * the minimal redundancy R = ceil(P_s * K),
  * the combined code rate R_F*K/(K+R) and its overhead complement,
  * per-lane total delays (transmission plus propagation),
  * the auxiliary rate that makes both lanes of one generation arrive
    simultaneously, which exists only while the auxiliary distance stays
    below  K*s*c / (R_F*C_main) + d_main  (``aux_distance_bound``).

``grid_kernel`` is the one planning path. For a link shape (K, s, R_F, C_main)
it runs ``fec.chain`` and computes the lane terms once, and returns a function
that plans one (p_e, d_main, d_aux) point to plain numbers: the chain's residual
function, then the lane formulas, each written out in its operation order. ``plan``
is its one-point case, as ``fec.derive`` is the chain's, and ``scenario.sweep``
builds no LinkParams or LinkPlan per point, so every path gives the same floats.

All distances are metres, rates bits/second, times seconds. Everything is
a pure function of immutable inputs; sweep points can be planned in
parallel without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# derive is not called here; bench/tracer.py wraps planner.derive
from .fec import FecDerived, FecParams, chain, check_count, derive, snap

LIGHT_SPEED = 3e8  # m/s, fixed propagation speed for both lanes


class InfeasiblePointError(ValueError):
    """A point the chain cannot plan to finite values; a sweep records it as a row error."""


class InfeasibleAuxDistanceError(InfeasiblePointError):
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
        # So that a plan is finite or raises: the bound's term K*s*c/(R_F*C_main) is c times
        # the natives' transmission time, which bounds T_main and T_aux, and C_aux is
        # R*s*c*C_main over a denominator that adds a term of opposite sign to c*K*s >= 2**28,
        # so is at least 2**-25 when positive.
        k, s, fec_rate = self.fec.k, self.fec.s, self.fec.code_rate * self.main_rate
        if not (
            fec_rate > 0
            and math.isfinite(k * s * LIGHT_SPEED / fec_rate)
            and math.isfinite(k * s * LIGHT_SPEED * self.main_rate * 2**25)
        ):
            raise ValueError(
                f"main_rate must keep lane times and auxiliary rates finite, got {self.main_rate!r}"
            )
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


def aux_distance_bound(link: LinkParams) -> float:
    """Strict upper bound on the auxiliary distance for delay matching."""
    p = link.fec
    return _aux_distance_bound(p.k, p.s, p.code_rate * link.main_rate, link.main_distance)


def grid_kernel(k: int, s: int, code_rate: float, main_rate: float):
    """The planning chain for one link shape, with what the shape fixes computed once.

    Returns ``(hamming_distance, correctable_bits, point)``. ``point(p_e,
    main_distance, aux_distance)`` plans one point of the shape and returns
    ``(residual_ber, residual_ser, redundancy, total_rate, overhead, aux_rate,
    t_main, t_aux)``, the order of SweepRow's columns after p_e. It raises
    InfeasibleAuxDistanceError when the auxiliary distance is not strictly below
    the bound, where the matching rate would diverge or turn negative, and
    InfeasiblePointError naming the main distance when R > 0 and the rate's
    denominator overflows, so that the rate is 0. The inputs are not checked
    here: ``plan`` takes them from a LinkParams, ``scenario.sweep`` from a
    Scenario and a checked p_e.
    """
    d, t, residual = chain(k, s, code_rate)
    fec_rate = code_rate * main_rate
    t_natives = k * s / fec_rate  # transmission time of the natives on the main lane
    reach = LIGHT_SPEED * k * s

    def point(p_e: float, main_distance: float, aux_distance: float) -> tuple:
        pb, ps = residual(p_e)
        r = max(0, math.ceil(snap(ps * k)))  # the fewest coded symbols covering P_s*K
        denom = fec_rate * (main_distance - aux_distance) + reach
        if denom <= 0:
            raise InfeasibleAuxDistanceError(
                f"auxiliary distance {aux_distance} m is not below the feasibility bound "
                f"{_aux_distance_bound(k, s, fec_rate, main_distance)} m"
            )
        t_main = t_natives + main_distance / LIGHT_SPEED
        if r == 0:  # no auxiliary transmission: its rate and delay are reported as 0
            rate = t_aux = 0.0
        else:
            rate = r * s * LIGHT_SPEED * main_rate / denom  # lands both lanes together
            if rate <= 0:  # R_F*C_main*(d_main - d_aux) overflowed to inf
                raise InfeasiblePointError(
                    f"auxiliary lane required: redundancy {r} > 0 but its matched rate is 0 "
                    f"at main distance {main_distance} m"
                )
            t_aux = r * s / (code_rate * rate) + aux_distance / LIGHT_SPEED
        total_rate = code_rate * k / (k + r)
        return pb, ps, r, total_rate, 1.0 - total_rate, rate, t_main, t_aux

    return d, t, point


def plan(link: LinkParams) -> LinkPlan:
    """Run the full chain from FEC statistics to lane timing for one link."""
    p = link.fec
    d, t, point = grid_kernel(p.k, p.s, p.code_rate, link.main_rate)
    pb, ps, *rest = point(p.bit_error_rate, link.main_distance, link.aux_distance)
    return LinkPlan(FecDerived(d, t, pb, ps), *rest)


def _aux_distance_bound(k: int, s: int, fec_rate: float, main_distance: float) -> float:
    return k * s * LIGHT_SPEED / fec_rate + main_distance
