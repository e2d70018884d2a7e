"""Correction-budget model of a generic FEC code on the lossy main lane.

No concrete FEC scheme is simulated. A code of rate R_F protecting a
generation of K symbols of s bits is abstracted into four derived
quantities, computed in order by ``derive``:

  minimum Hamming distance   d = K*s/R_F - K*s, floored
  correctable bits           t = (d-2)/2 if d even else (d-1)/2, floored at 0
  residual bit error rate    max(0, (K*s*p_e - R_F*t) / (K*s))
  residual symbol error rate 1 - (1 - residual_ber)^s

The correction budget in the residual-BER expression is deliberately the
rate-scaled R_F*t, which is how this model family defines it; see the
README note on that convention. A residual BER that would come out
negative means the budget covers every expected error bit and is clamped
to exactly zero (and then the symbol error rate is zero too). Each formula
but t's is one unchecked plain-number function that ``derive`` and
``planner.grid_kernel`` share; ``correctable_bits`` is public and checks its
distance.

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


def is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, not a bool."""
    # type() first: plain ints pay least
    return type(value) is int or not isinstance(value, bool) and hasattr(value, "__index__")


def check_count(name: str, value, least: int) -> None:
    """Reject ``value`` unless it is an integer (``is_integer``) >= ``least``."""
    if not is_integer(value) or operator.index(value) < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def check_seed(name: str, value) -> None:
    """Reject ``value`` unless it is an integer count >= 0 and below SEED_LIMIT."""
    check_count(name, value, 0)
    if operator.index(value) >= SEED_LIMIT:  # index, not int: exact for a numpy uint64 too
        raise ValueError(f"{name} must be < 2**64, got {value!r}")


def check_probability(name: str, value) -> None:
    """Reject ``value`` unless it is in [0, 1]; nan is rejected too."""
    if not 0 <= value <= 1:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


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
        check_probability("bit_error_rate", self.bit_error_rate)


@dataclass(frozen=True)
class FecDerived:
    hamming_distance: int
    correctable_bits: int
    residual_ber: float
    residual_ser: float


def correctable_bits(delta_min: int) -> int:
    """Error bits correctable at minimum distance d: the paper's (d-2)/2 for even d and
    (d-1)/2 for odd d, floored at 0, which is max(0, (d-1) // 2) for every integer d >= 0."""
    check_count("delta_min", delta_min, 0)
    return max(0, (delta_min - 1) // 2)


def derive(params: FecParams) -> FecDerived:
    """Run the four-stage chain on one parameter set."""
    bits = params.k * params.s
    d = _hamming_distance(bits, params.code_rate)
    t = correctable_bits(d)
    pb = _residual_ber(bits, params.bit_error_rate, _correction_budget(params.code_rate, t))
    return FecDerived(
        hamming_distance=d,
        correctable_bits=t,
        residual_ber=pb,
        residual_ser=_residual_ser(pb, params.s),
    )


# The formulas that derive and planner.grid_kernel share, unchecked. ``bits`` is K*s.


def _hamming_distance(bits: int, code_rate: float) -> int:
    return math.floor(snap(bits / code_rate - bits))


def _correction_budget(code_rate: float, correctable: int) -> float:
    """R_F*t, the rate-scaled budget of the residual BER; ``sim.run`` floors it."""
    return code_rate * correctable


def _residual_ber(bits: int, bit_error_rate: float, budget: float) -> float:
    return max(0.0, (bits * bit_error_rate - budget) / bits)


def _residual_ser(p_bit: float, s: int) -> float:
    return 1.0 - (1.0 - p_bit) ** s


def binomial_tail_above(k: int, p: float, r: int) -> float:
    """Pr[Binomial(k, p) > r], the analytic decode-failure probability."""
    check_count("k", k, 1)
    check_probability("p", p)
    check_count("r", r, 0)
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
