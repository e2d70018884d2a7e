"""Monte Carlo simulator of the two-lane generation pipeline.

Each simulated generation draws K random native payloads, encodes them,
puts the natives on the lossy main lane and the R coded payloads on the
auxiliary lane (which is error-free by assumption, as is cross-lane
interference), applies one of two main-lane error models, then decodes
from the survivors plus all auxiliary symbols:

  analytic-erasure  every native is independently erased with the
                    residual symbol error probability from the plan.
  bit-level         each of the K*s main-lane bits flips independently
                    with the raw channel BER; the FEC budget then corrects
                    floor(code_rate * correctable_bits) of the flipped
                    bits, and any symbol still holding a flip is erased.

The bit-level budget is spent on a uniformly random subset of the flipped
bits. A positional policy (e.g. fixing the earliest flips first) would
concentrate the cleaned bits in the leading symbols and bias the erasure
count well below the expectation-level analytic model this simulator
exists to cross-check; the random subset reproduces it.

Generations are independent: each uses an RNG substream derived from
(rng_seed, generation index), so a run is deterministic for a fixed seed
and could be fanned out across workers with order-independent counters.

Lane timing: both lanes of a generation start transmitting together, so
the per-generation arrival skew is |t_main - t_aux| for the plan's
auxiliary rate (zero when that rate came from the delay-matching formula).
The receive buffer is not bounded; the number of symbols received per
generation is only reported, as a histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .codec import (
    Generation,
    InsufficientSymbolsError,
    ReceivedGeneration,
    ReceivedSymbol,
    SingularSystemError,
    decode,
    encode,
    make_coefficients,
)
from .fec import ERROR_MODES, snap
from .planner import LinkParams, LinkPlan, lane_times


def check_run_args(generations, error_mode, rng_seed=0, payload_len=1) -> None:
    """Reject a count that is not an integer >= its least value, then an unknown mode."""
    for name, value, least in (
        ("generations", generations, 1), ("rng_seed", rng_seed, 0), ("payload_len", payload_len, 1)
    ):
        if not isinstance(value, (int, np.integer)) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if error_mode not in ERROR_MODES:
        raise ValueError(f"error_mode must be one of {ERROR_MODES}")


@dataclass(frozen=True)
class SimConfig:
    link: LinkParams
    plan: LinkPlan
    generations: int
    rng_seed: int = 0
    error_mode: str = "analytic-erasure"
    payload_len: int = 8  # bytes per simulated symbol payload

    def __post_init__(self):
        check_run_args(self.generations, self.error_mode, self.rng_seed, self.payload_len)


@dataclass
class SimReport:
    sent_generations: int = 0
    decoded_generations: int = 0
    insufficient_failures: int = 0
    singular_failures: int = 0
    decode_failure_rate: float = 0.0
    symbol_erasure_rate: float = 0.0  # observed on the main lane
    mean_lane_skew: float = 0.0  # seconds
    received_histogram: dict[int, int] = field(default_factory=dict)
    payload_mismatches: int = 0  # decoded generations differing from ground truth


def erase_symbols(k: int, p_erase: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of main-lane symbols surviving i.i.d. erasure with prob p_erase."""
    if not 0 <= p_erase <= 1:
        raise ValueError("p_erase must be in [0, 1]")
    return np.flatnonzero(rng.random(k) >= p_erase)


def corrupt_bits(
    k: int,
    s: int,
    bit_error_rate: float,
    correctable: int,
    code_rate: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Survivor indices under bit-level corruption with an FEC budget.

    Flips each of the k*s bits independently, corrects a uniformly random
    subset of the flips no larger than floor(code_rate * correctable), and
    erases every symbol still containing a flipped bit.
    """
    if not 0 <= bit_error_rate <= 1:
        raise ValueError("bit_error_rate must be in [0, 1]")
    budget = math.floor(snap(code_rate * correctable))
    flips = rng.random((k, s)) < bit_error_rate
    flat = flips.ravel()
    flipped = np.flatnonzero(flat)
    if flipped.size <= budget:
        flat[flipped] = False
    elif budget > 0:
        corrected = rng.choice(flipped, size=budget, replace=False)
        flat[corrected] = False
    return np.flatnonzero(~flips.any(axis=1))


def run(cfg: SimConfig) -> SimReport:
    """Simulate cfg.generations independent generations end to end."""
    k = cfg.link.fec.k
    s = cfg.link.fec.s
    r = cfg.plan.redundancy
    coeffs = make_coefficients(k, r, seed=cfg.rng_seed)

    t_main, t_aux = lane_times(cfg.link, r, cfg.plan.aux_rate)
    skew = abs(t_main - t_aux) if r > 0 else 0.0

    report = SimReport(sent_generations=cfg.generations, mean_lane_skew=skew)
    erased_total = 0

    for g in range(cfg.generations):
        rng = np.random.default_rng((cfg.rng_seed, g))
        natives = rng.integers(0, 256, size=(k, cfg.payload_len), dtype=np.uint8)
        gen = Generation(
            symbols=tuple(row.tobytes() for row in natives), generation_id=g
        )
        coded = encode(gen, coeffs)

        if cfg.error_mode == "analytic-erasure":
            survivors = erase_symbols(k, cfg.plan.fec.residual_ser, rng)
        else:
            survivors = corrupt_bits(
                k,
                s,
                cfg.link.fec.bit_error_rate,
                cfg.plan.fec.correctable_bits,
                cfg.link.fec.code_rate,
                rng,
            )
        erased_total += k - survivors.size

        entries = [
            ReceivedSymbol("native", i, gen.symbols[i]) for i in survivors.tolist()
        ]
        entries.extend(ReceivedSymbol("coded", j, p) for j, p in enumerate(coded))
        received_count = len(entries)
        report.received_histogram[received_count] = (
            report.received_histogram.get(received_count, 0) + 1
        )

        try:
            out = decode(
                ReceivedGeneration(entries=tuple(entries), generation_id=g), coeffs, k
            )
        except InsufficientSymbolsError:
            report.insufficient_failures += 1
        except SingularSystemError:
            report.singular_failures += 1
        else:
            report.decoded_generations += 1
            if out.symbols != gen.symbols:
                report.payload_mismatches += 1

    failures = report.insufficient_failures + report.singular_failures
    report.decode_failure_rate = failures / cfg.generations
    report.symbol_erasure_rate = erased_total / (k * cfg.generations)
    return report
