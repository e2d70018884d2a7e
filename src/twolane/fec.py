"""Correction-budget model of a generic FEC code on the lossy main lane.

No concrete FEC scheme is simulated. A code of rate R_F protecting a
generation of K symbols of s bits is abstracted into four derived
quantities, computed in order:

  minimum Hamming distance   d = K*s/R_F - K*s
  correctable bits           t = (d-2)/2 if d even else (d-1)/2, floored at 0
  residual bit error rate    max(0, (K*s*p_e - R_F*t) / (K*s))
  residual symbol error rate 1 - (1 - residual_ber)^s

The correction budget in the residual-BER expression is deliberately the
rate-scaled R_F*t, which is how this model family defines it; see the
README note on that convention. A residual BER that would come out
negative means the budget covers every expected error bit and is clamped
to exactly zero (and then the symbol error rate is zero too).

The decode-failure model is here too: with K natives erased i.i.d. at P_s
and R coded symbols, a generation fails with ``binomial_tail_above(K, P_s, R)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

# The simulator's main-lane error models; both apply the residual-error model below.
ERROR_MODES = ("analytic-erasure", "bit-level")
# Simulator seeds fill at most two 32-bit words of SeedSequence's four-word
# pool, so a seed's entropy never runs into the spawn keys of the streams.
SEED_LIMIT = 2**64


def snap(x: float) -> float:
    """``x`` as the nearest integer when within 1e-9 of it, else ``x`` unchanged.

    Quantities that are integers in exact arithmetic can arrive with float
    representation noise (e.g. 240/0.8); snap them before ``math.floor`` or
    ``math.ceil`` so the noise cannot move the result by one.
    """
    nearest = round(x)
    return nearest if abs(x - nearest) < 1e-9 else x


def check_count(name: str, value, least: int) -> None:
    """Reject ``value`` unless it is a Python or numpy integer, not a bool, >= ``least``."""
    integer = type(value) is int or not isinstance(value, bool) and hasattr(value, "__index__")
    if not integer or operator.index(value) < least:  # type() first: plain ints pay least
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class FecParams:
    """Inputs of the correction-budget model."""

    k: int  # symbols per generation
    s: int  # bits per symbol
    code_rate: float  # FEC code rate, in (0, 1]
    bit_error_rate: float  # expected channel BER before correction

    def __post_init__(self):
        check_count("k", self.k, 1)
        check_count("s", self.s, 1)
        if not 0 < self.code_rate <= 1:
            raise ValueError("code_rate must be in (0, 1]")
        if not 0 <= self.bit_error_rate <= 1:
            raise ValueError("bit_error_rate must be in [0, 1]")


@dataclass(frozen=True)
class FecDerived:
    hamming_distance: int
    correctable_bits: int
    residual_ber: float
    residual_ser: float


def hamming_distance(params: FecParams) -> int:
    """Redundancy bits the FEC adds to one generation block, floored to an int."""
    bits = params.k * params.s
    return math.floor(snap(bits / params.code_rate - bits))


def correctable_bits(delta_min: int) -> int:
    """Error bits correctable at a given minimum distance (never negative)."""
    if delta_min < 0:
        raise ValueError("delta_min must be >= 0")
    if delta_min % 2 == 0:
        return max(0, (delta_min - 2) // 2)
    return (delta_min - 1) // 2


def residual_ber(params: FecParams, correctable: int) -> float:
    """Expected per-bit error rate left after spending the correction budget."""
    if correctable < 0:
        raise ValueError("correctable must be >= 0")
    bits = params.k * params.s
    return max(0.0, (bits * params.bit_error_rate - params.code_rate * correctable) / bits)


def residual_ser(p_bit: float, s: int) -> float:
    """Symbol error rate for s independent bits at residual BER ``p_bit``."""
    if not 0 <= p_bit <= 1:
        raise ValueError("p_bit must be in [0, 1]")
    if s < 1:
        raise ValueError("s must be >= 1")
    return 1.0 - (1.0 - p_bit) ** s


def derive(params: FecParams) -> FecDerived:
    """Run the four-stage chain on one parameter set."""
    d = hamming_distance(params)
    t = correctable_bits(d)
    pb = residual_ber(params, t)
    return FecDerived(
        hamming_distance=d,
        correctable_bits=t,
        residual_ber=pb,
        residual_ser=residual_ser(pb, params.s),
    )


def binomial_tail_above(k: int, p: float, r: int) -> float:
    """Pr[Binomial(k, p) > r], the analytic decode-failure probability."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    if r >= k:
        return 0.0
    acc = 0.0
    c = math.comb(k, r + 1)
    for i in range(r + 1, k + 1):  # c = C(k, i), exact
        try:  # the plain product while c fits in a float keeps the shipped CSVs byte-stable
            acc += c * p**i * (1 - p) ** (k - i)
        except OverflowError:  # c is beyond the float range, so 0 < i < k: sum in log space
            if 0 < p < 1:
                acc += math.exp(math.log(c) + i * math.log(p) + (k - i) * math.log1p(-p))
        c = c * (k - i) // (i + 1)
    return min(1.0, acc)
