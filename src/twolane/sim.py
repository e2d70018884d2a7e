"""Monte Carlo simulator of the two-lane generation pipeline.

Each generation's K random native payloads go on the lossy main lane and
its R coded payloads on the auxiliary lane (error-free by assumption, as is
cross-lane interference); the receiver decodes from the surviving natives
plus every coded payload. Two main-lane error models:

  analytic-erasure  each native is erased i.i.d. with the plan's residual
                    symbol error probability.
  bit-level         each of the K*s bits flips i.i.d. with the raw BER; the
                    FEC budget floor(code_rate * correctable_bits) corrects
                    a uniformly random subset of the flips (each bit draws a
                    key, the smallest keys win), and a symbol still holding
                    a flip is erased. Correcting by position instead would
                    bias the erasure count well below the analytic model.

Streams: every draw of a run comes from ``SeedSequence(rng_seed)`` by spawn
key, ``(distance_index, 0)`` for the coefficients and ``(distance_index,
1 + c)`` for chunk c, the generations CHUNK*c to CHUNK*(c + 1) - 1. A chunk
draws, in this order, its (G, K, L) natives, then either the (G, K) erasure
uniforms or the (G, K*s) flip uniforms and (G, K*s) correction keys. Seeds
are below 2**64, so no two (seed, distance, chunk) keys share a stream.

Encode runs per block: one ``Generation`` whose payload i stacks payload i
of up to 256 // L of a chunk's generations (at least one), so a coefficient's
256-byte table row is gathered once per block. Decode runs per generation.
The receive buffer is unbounded; the symbols received per generation are
only reported, as a histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import itemgetter

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
from .fec import ERROR_MODES, SEED_LIMIT, check_count, snap
from .planner import LinkParams, LinkPlan

CHUNK = 16  # generations per random stream; part of the stream contract
BLOCK_BYTES = 256  # payload bytes per native in one encode call: one MUL row


def check_run_args(generations, error_mode, rng_seed=0, payload_len=1, distance_index=0) -> None:
    """Reject a count that is not an integer >= its least value or a seed >= 2**64, then a mode."""
    for name, value, least in (
        ("generations", generations, 1), ("rng_seed", rng_seed, 0),
        ("payload_len", payload_len, 1), ("distance_index", distance_index, 0),
    ):
        check_count(name, value, least)
    if int(rng_seed) >= SEED_LIMIT:
        raise ValueError(f"rng_seed must be < 2**64, got {rng_seed!r}")
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
    distance_index: int = 0  # first spawn-key word of every stream of the run

    def __post_init__(self):
        check_run_args(
            self.generations, self.error_mode, self.rng_seed, self.payload_len, self.distance_index
        )


@dataclass
class SimReport:
    sent_generations: int = 0
    decoded_generations: int = 0
    insufficient_failures: int = 0
    singular_failures: int = 0
    decode_failure_rate: float = 0.0
    symbol_erasure_rate: float = 0.0  # observed on the main lane
    received_histogram: dict[int, int] = field(default_factory=dict)
    payload_mismatches: int = 0  # decoded generations differing from ground truth


def erase_symbols(g: int, k: int, p_erase: float, rng: np.random.Generator) -> np.ndarray:
    """(g, k) survivor mask: each main-lane symbol is erased i.i.d. with prob p_erase."""
    if not 0 <= p_erase <= 1:
        raise ValueError("p_erase must be in [0, 1]")
    return rng.random((g, k)) >= p_erase


def corrupt_bits(g, k, s, bit_error_rate, correctable, code_rate, rng) -> np.ndarray:
    """(g, k) survivor mask: draw the (g, k*s) flip uniforms and correction keys, spend
    the budget floor(code_rate * correctable) per row, erase each symbol still flipped."""
    if not 0 <= bit_error_rate <= 1:
        raise ValueError("bit_error_rate must be in [0, 1]")
    flips = rng.random((g, k * s)) < bit_error_rate
    keys = rng.random((g, k * s))
    budget = math.floor(snap(code_rate * correctable))
    return ~correct_flips(flips, keys, budget).reshape(g, k, s).any(axis=2)


def correct_flips(flips: np.ndarray, keys: np.ndarray, budget: int) -> np.ndarray:
    """Clear in place, per row, the min(flips, budget) flipped bits with the smallest keys.

    Uniform keys in [0, 1) make the cleared bits a uniformly random subset of the flips."""
    b = min(budget, flips.shape[1])
    if b > 0:
        ranked = np.argpartition(np.where(flips, keys, 2.0), b - 1, axis=1)[:, :b]
        np.put_along_axis(flips, ranked, False, axis=1)
    return flips


def run(cfg: SimConfig) -> SimReport:
    """Simulate cfg.generations independent generations end to end."""
    fec, k = cfg.link.fec, cfg.link.fec.k
    n, length = int(cfg.generations), int(cfg.payload_len)
    seed, distance = int(cfg.rng_seed), int(cfg.distance_index)
    streams = (np.random.SeedSequence(seed, spawn_key=(distance, key)) for key in count())
    coeffs = make_coefficients(k, cfg.plan.redundancy, seed=next(streams))
    per_block = max(1, BLOCK_BYTES // length)
    report = SimReport(sent_generations=n)
    histogram = report.received_histogram
    erased_total = 0

    for first, stream in zip(range(0, n, CHUNK), streams):
        rng = np.random.default_rng(stream)
        g = min(CHUNK, n - first)
        natives = rng.integers(0, 256, size=(g, k, length), dtype=np.uint8)
        if cfg.error_mode == "analytic-erasure":
            alive = erase_symbols(g, k, cfg.plan.fec.residual_ser, rng)
        else:
            alive = corrupt_bits(
                g, k, fec.s, fec.bit_error_rate, cfg.plan.fec.correctable_bits, fec.code_rate, rng
            )
        erased_total += alive.size - int(np.count_nonzero(alive))

        for b0 in range(0, g, per_block):
            stacked = tuple(p.tobytes() for p in natives[b0 : b0 + per_block].transpose(1, 0, 2))
            coded = encode(Generation(symbols=stacked, generation_id=first + b0), coeffs)
            for b, row in enumerate(alive[b0 : b0 + per_block].tolist()):
                cut = itemgetter(slice(b * length, (b + 1) * length))
                sent = tuple(map(cut, stacked))
                survivors = compress(range(k), row), compress(sent, row)
                entries = (
                    *map(ReceivedSymbol, repeat("native"), *survivors),
                    *map(ReceivedSymbol, repeat("coded"), range(len(coded)), map(cut, coded)),
                )
                histogram[len(entries)] = histogram.get(len(entries), 0) + 1
                try:
                    out = decode(ReceivedGeneration(entries, first + b0 + b), coeffs, k)
                except InsufficientSymbolsError:
                    report.insufficient_failures += 1
                except SingularSystemError:
                    report.singular_failures += 1
                else:
                    report.decoded_generations += 1
                    if out.symbols != sent:
                        report.payload_mismatches += 1

    failures = report.insufficient_failures + report.singular_failures
    report.decode_failure_rate = failures / n
    report.symbol_erasure_rate = erased_total / (k * n)
    return report
